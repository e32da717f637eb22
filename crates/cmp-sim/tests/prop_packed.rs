//! Hand-rolled property test for packed trace storage (the environment has
//! no `proptest`; `icp_numeric::rng::Xoshiro256` drives the case
//! generation).
//!
//! Properties, over random event sequences (random gaps/addresses/write
//! flags/MLP, random barrier placement including leading, trailing and
//! consecutive barriers):
//!
//! * **Round-trip**: `PackedTrace::from_events(e).to_events() == e` — the
//!   struct-of-arrays columns (including the write bitmap across word
//!   boundaries and the barrier position encoding) are lossless.
//! * **Replay equivalence**: a `ReplayStream` over a shared trace delivers
//!   exactly the event sequence, then `Finished` forever.
//! * **Record equivalence**: `PackedTrace::record` with a random event
//!   limit stores exactly what draining the stream event by event up to
//!   that limit yields.
//! * **Columnar drain equivalence**: draining a stream through
//!   `fill_packed` chunks under a random cap schedule reconstructs the
//!   exact event sequence — for both the trait's default loop over
//!   `next_event` and `ReplayStream`'s zero-copy override — with every
//!   chunk respecting its cap and the return value replacing the in-band
//!   `Finished` event.
//! * **Binary format**: `to_bytes` round-trips through `from_bytes`, and
//!   every truncation and random byte flips of a valid encoding decode to
//!   a `TraceError` or a trace — never a panic.

use icp_cmp_sim::stream::{AccessStream, ReplayStream, ThreadEvent};
use icp_cmp_sim::{PackedTrace, TraceError};
use icp_numeric::rng::Xoshiro256;
use std::sync::Arc;

/// Random event sequence: mostly accesses, ~1-in-8 barriers (so runs of
/// consecutive barriers occur), wide value ranges.
fn random_events(rng: &mut Xoshiro256, len: usize) -> Vec<ThreadEvent> {
    (0..len)
        .map(|_| {
            if rng.next_bool(0.125) {
                ThreadEvent::Barrier
            } else {
                ThreadEvent::Access {
                    gap: rng.next_bounded(1 << 20) as u32,
                    addr: rng.next_u64() >> rng.next_bounded(30),
                    write: rng.next_bool(0.5),
                    mlp_tenths: rng.next_bounded(160) as u16 + 10,
                }
            }
        })
        .collect()
}

#[test]
fn packed_roundtrip_property() {
    let mut rng = Xoshiro256::seed_from_u64(0x9ACC_ED01);
    for case in 0..300u64 {
        let len = rng.next_bounded(400) as usize;
        let events = random_events(&mut rng, len);
        let packed = PackedTrace::from_events(&events);
        assert_eq!(packed.to_events(), events, "case {case} len {len}");
        assert_eq!(
            packed.accesses() + packed.barriers(),
            events.len(),
            "case {case}: event count"
        );
        let instructions: u64 = events
            .iter()
            .map(|e| match e {
                ThreadEvent::Access { gap, .. } => u64::from(*gap) + 1,
                _ => 0,
            })
            .sum();
        assert_eq!(packed.instructions(), instructions, "case {case}: instruction count");
    }
}

#[test]
fn packed_replay_matches_events_property() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_CAFE);
    for case in 0..150u64 {
        let len = rng.next_bounded(300) as usize;
        let events = random_events(&mut rng, len);
        let packed = Arc::new(PackedTrace::from_events(&events));
        let mut replay = PackedTrace::stream(&packed);
        for step in 0..len + 3 {
            let expect = events.get(step).copied().unwrap_or(ThreadEvent::Finished);
            assert_eq!(replay.next_event(), expect, "case {case} step {step}");
        }
    }
}

/// Delivers only through `next_event`, so draining it exercises the
/// trait's default `fill_packed`.
struct Scalar(ReplayStream);

impl AccessStream for Scalar {
    fn next_event(&mut self) -> ThreadEvent {
        self.0.next_event()
    }
}

/// Drains `s` through `fill_packed` using the cyclic `caps` schedule,
/// re-expanding each chunk. The returned sequence ends with a `Finished`
/// standing in for the fill that reported the end.
fn drain_packed<S: AccessStream>(mut s: S, caps: &[usize], tag: &str) -> Vec<ThreadEvent> {
    let mut chunk = PackedTrace::new();
    let mut out = Vec::new();
    for &cap in caps.iter().cycle() {
        let finished = s.fill_packed(&mut chunk, cap);
        assert!(chunk.len() <= cap, "{tag}: chunk overshot cap {cap}");
        out.extend(chunk.to_events());
        if finished {
            out.push(ThreadEvent::Finished);
            return out;
        }
        // An unfinished fill is full; an empty one would make no progress.
        assert_eq!(chunk.len(), cap, "{tag}: unfinished chunk short of cap {cap}");
    }
    unreachable!("caps schedule is non-empty")
}

#[test]
fn fill_packed_drain_matches_events_property() {
    let mut rng = Xoshiro256::seed_from_u64(0xF111_9ACD);
    for case in 0..150u64 {
        let len = rng.next_bounded(300) as usize;
        let events = random_events(&mut rng, len);
        let packed = Arc::new(PackedTrace::from_events(&events));
        // One random cap schedule (1..=23, so chunks straddle every event
        // pattern) shared by both implementations.
        let caps: Vec<usize> =
            (0..8).map(|_| rng.next_bounded(23) as usize + 1).collect();
        let mut expect = events.clone();
        expect.push(ThreadEvent::Finished);
        // ReplayStream's zero-copy column-slice override.
        let zero_copy =
            drain_packed(PackedTrace::stream(&packed), &caps, &format!("case {case} zero-copy"));
        assert_eq!(zero_copy, expect, "case {case}: zero-copy drain");
        // The trait's default loop over `next_event`.
        let scalar = drain_packed(
            Scalar(ReplayStream::new(events)),
            &caps,
            &format!("case {case} scalar"),
        );
        assert_eq!(scalar, expect, "case {case}: scalar drain");
    }
}

/// The first `limit` events of `stream`, drained one at a time (the
/// trailing `Finished` not stored) — the reference for `record`.
fn drain_events<S: AccessStream>(stream: &mut S, limit: usize) -> Vec<ThreadEvent> {
    let mut out = Vec::new();
    while out.len() < limit {
        match stream.next_event() {
            ThreadEvent::Finished => break,
            e => out.push(e),
        }
    }
    out
}

#[test]
fn packed_record_matches_drained_events_property() {
    let mut rng = Xoshiro256::seed_from_u64(0xBEEF_F00D);
    for case in 0..150u64 {
        let len = rng.next_bounded(300) as usize;
        let events = random_events(&mut rng, len);
        // Random limit spanning under-, exact- and over-length recordings.
        let limit = rng.next_bounded(2 * len as u64 + 2) as usize;
        let mut s1 = ReplayStream::new(events.clone());
        let mut s2 = ReplayStream::new(events);
        let reference = drain_events(&mut s1, limit);
        let packed = PackedTrace::record(&mut s2, limit);
        assert_eq!(packed.to_events(), reference, "case {case} limit {limit}");
    }
}

#[test]
fn bytes_roundtrip_property() {
    let mut rng = Xoshiro256::seed_from_u64(0xB1_7E5);
    for case in 0..150u64 {
        let len = rng.next_bounded(300) as usize;
        let packed = PackedTrace::from_events(&random_events(&mut rng, len));
        let back = PackedTrace::from_bytes(&packed.to_bytes());
        assert_eq!(back.as_ref(), Ok(&packed), "case {case}");
    }
}

/// Decoding untrusted bytes never panics: every proper prefix of a valid
/// encoding is rejected as truncated, and random byte flips (in the header,
/// tags and payloads alike) decode to an error or to some trace.
#[test]
fn from_bytes_rejects_corruption_without_panicking() {
    let mut rng = Xoshiro256::seed_from_u64(0xF1_1B5);
    for case in 0..40u64 {
        let len = rng.next_bounded(60) as usize;
        let bytes = PackedTrace::from_events(&random_events(&mut rng, len)).to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                PackedTrace::from_bytes(&bytes[..cut]),
                Err(TraceError::Truncated),
                "case {case}: prefix of {cut} of {} bytes",
                bytes.len()
            );
        }
        for flip in 0..200u64 {
            let mut corrupt = bytes.clone();
            for _ in 0..=rng.next_bounded(3) {
                let at = rng.next_bounded(corrupt.len() as u64) as usize;
                corrupt[at] ^= (rng.next_bounded(255) + 1) as u8;
            }
            if let Ok(trace) = PackedTrace::from_bytes(&corrupt) {
                // Whatever decodes re-encodes to a well-formed trace.
                let again = PackedTrace::from_bytes(&trace.to_bytes());
                assert_eq!(again.as_ref(), Ok(&trace), "case {case} flip {flip}");
            }
        }
    }
}
