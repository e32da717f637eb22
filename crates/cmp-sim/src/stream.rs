//! The interface between workloads and the simulator.
//!
//! A thread's execution is abstracted as a stream of [`ThreadEvent`]s:
//! memory accesses separated by runs of non-memory instructions, barrier
//! arrivals delimiting parallel sections (§III-B), and termination. The
//! `icp-workloads` crate provides synthetic generators; [`ReplayStream`]
//! replays a recorded [`PackedTrace`], and other sources can implement
//! [`AccessStream`] too.

use std::sync::Arc;

use crate::packed::PackedTrace;

/// One event in a thread's instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadEvent {
    /// `gap` non-memory instructions followed by one memory access to
    /// byte address `addr`.
    Access {
        /// Non-memory instructions retired before the access (1 cycle each).
        gap: u32,
        /// Byte address accessed.
        addr: u64,
        /// Whether the access is a store. Timing treats loads and stores
        /// identically (no write-buffer model); the flag exists so stream
        /// implementations can carry it and future models can use it.
        write: bool,
        /// Memory-level parallelism of this access, in tenths (10 = no
        /// overlap). On an L2 miss the DRAM portion of the latency is
        /// divided by `mlp_tenths / 10`: streaming/prefetchable access
        /// patterns overlap their misses (high MLP, cheap per-miss stall)
        /// while dependent pointer-chasing misses serialise (MLP 1.0).
        /// This is what lets a polluter thread insert lines at a high rate
        /// without its CPI exploding — the behaviour behind the paper's
        /// "threads with not so good cache behavior occupying most of the
        /// shared cache with very little performance gain" (§I).
        mlp_tenths: u16,
    },
    /// The thread arrived at a barrier ending the current parallel section.
    /// It stalls until every unfinished thread arrives.
    Barrier,
    /// The thread has retired all of its work.
    Finished,
}

impl ThreadEvent {
    /// A plain read access with no miss overlap (MLP 1.0) — the common
    /// case in tests and traces.
    pub fn access(gap: u32, addr: u64) -> Self {
        ThreadEvent::Access { gap, addr, write: false, mlp_tenths: 10 }
    }
}

/// A per-thread instruction/access stream consumed by the simulator.
///
/// Streams are *generation-only*: the simulator never feeds timing or cache
/// state back into them, so events may be produced ahead of consumption.
/// The simulator exploits that with [`Self::fill_packed`], pulling events
/// into a per-core ring of packed columns so the per-event virtual dispatch
/// amortises over a whole chunk.
pub trait AccessStream {
    /// Returns the next event. After returning [`ThreadEvent::Finished`]
    /// the stream will not be polled again.
    fn next_event(&mut self) -> ThreadEvent;

    /// Clears `out` and refills it with at most `cap` upcoming events
    /// (accesses plus barriers) in packed column form. Returns `true` when
    /// the stream ended within (or right at the end of) this fill.
    ///
    /// Termination is the return value rather than an in-band event, and
    /// ends delivery: `out` may hold fewer than `cap` events, and the
    /// stream is not polled again afterwards (if it is, it must keep
    /// returning `true` with `out` empty). An unfinished fill holds exactly
    /// `cap` events. The delivered column sequence must decode to exactly
    /// what `next_event` would produce — chunking is a delivery detail,
    /// never a semantic one (the `batch_equivalence` integration suite
    /// holds implementations to this); `cap == 0` consumes nothing and
    /// returns `false`.
    ///
    /// The default loops over [`Self::next_event`]; columnar generators
    /// and [`ReplayStream`] override it to write columns directly.
    fn fill_packed(&mut self, out: &mut PackedTrace, cap: usize) -> bool {
        out.clear();
        while out.len() < cap {
            match self.next_event() {
                ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                    out.push_access(gap, addr, write, mlp_tenths);
                }
                ThreadEvent::Barrier => out.push_barrier(),
                ThreadEvent::Finished => return true,
            }
        }
        false
    }
}

/// Delegation for boxed streams, so wrappers and adaptors can hold a
/// `Box<dyn AccessStream>` and still be streams themselves. Forwards
/// `fill_packed` too — a boxed generator keeps its columnar delivery.
impl AccessStream for Box<dyn AccessStream + '_> {
    fn next_event(&mut self) -> ThreadEvent {
        (**self).next_event()
    }

    fn fill_packed(&mut self, out: &mut PackedTrace, cap: usize) -> bool {
        (**self).fill_packed(out, cap)
    }
}

/// A stream replaying a [`PackedTrace`], then `Finished` forever.
///
/// [`PackedTrace::stream`] shares one trace between any number of
/// replays — each costs two cursor words, not a copy of the columns —
/// and [`ReplayStream::new`] packs an explicit event list.
#[derive(Clone, Debug)]
pub struct ReplayStream {
    trace: Arc<PackedTrace>,
    /// Next access column index to deliver.
    next_access: usize,
    /// Next barrier marker to fire.
    next_barrier: usize,
}

impl ReplayStream {
    /// Creates a stream that yields `events` in order, then `Finished`
    /// forever. Events after a `Finished` in `events` are dropped.
    pub fn new(events: Vec<ThreadEvent>) -> Self {
        ReplayStream::over(Arc::new(PackedTrace::from_events(&events)))
    }

    /// A replay cursor at the start of a shared trace.
    pub(crate) fn over(trace: Arc<PackedTrace>) -> Self {
        ReplayStream { trace, next_access: 0, next_barrier: 0 }
    }
}

impl AccessStream for ReplayStream {
    fn next_event(&mut self) -> ThreadEvent {
        match self.trace.event_at(self.next_access, self.next_barrier) {
            Some(ThreadEvent::Barrier) => {
                self.next_barrier += 1;
                ThreadEvent::Barrier
            }
            Some(e) => {
                self.next_access += 1;
                e
            }
            None => ThreadEvent::Finished,
        }
    }

    /// Columnar delivery: access runs between barriers become column-range
    /// memcpys out of the shared trace — no per-event decode at all on the
    /// replay side.
    fn fill_packed(&mut self, out: &mut PackedTrace, cap: usize) -> bool {
        out.clear();
        let ReplayStream { trace, next_access, next_barrier } = self;
        while out.len() < cap {
            // Barriers due at the cursor fire before the next access run.
            if *next_barrier < trace.barriers() && trace.barrier_at(*next_barrier) == *next_access {
                out.push_barrier();
                *next_barrier += 1;
                continue;
            }
            if *next_access >= trace.accesses() {
                return true;
            }
            // Copy the access run up to the next barrier or the cap.
            let until = if *next_barrier < trace.barriers() {
                trace.barrier_at(*next_barrier)
            } else {
                trace.accesses()
            };
            let run = (until - *next_access).min(cap - out.len());
            out.extend_accesses(trace, *next_access, *next_access + run);
            *next_access += run;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_yields_then_finishes() {
        let mut s = ReplayStream::new(vec![
            ThreadEvent::access(2, 64),
            ThreadEvent::Barrier,
        ]);
        assert_eq!(s.next_event(), ThreadEvent::access(2, 64));
        assert_eq!(s.next_event(), ThreadEvent::Barrier);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
    }

    #[test]
    fn replay_drops_events_after_finished() {
        let mut s = ReplayStream::new(vec![
            ThreadEvent::access(2, 64),
            ThreadEvent::Finished,
            ThreadEvent::access(0, 128),
        ]);
        assert_eq!(s.next_event(), ThreadEvent::access(2, 64));
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
    }

    #[test]
    fn replay_fill_packed_matches_next_event() {
        let events = vec![
            ThreadEvent::access(2, 64),
            ThreadEvent::Barrier,
            ThreadEvent::access(0, 128),
        ];
        let mut chunked = ReplayStream::new(events.clone());
        let mut chunk = PackedTrace::new();
        // First fill: a full chunk, not finished yet.
        assert!(!chunked.fill_packed(&mut chunk, 2));
        assert_eq!(chunk.to_events(), events[..2]);
        // Second fill: the last event and the end.
        assert!(chunked.fill_packed(&mut chunk, 2));
        assert_eq!(chunk.to_events(), events[2..]);
        // An exhausted stream keeps reporting the end with nothing in it.
        assert!(chunked.fill_packed(&mut chunk, 2));
        assert!(chunk.is_empty());
    }

    #[test]
    fn fill_packed_with_zero_cap_consumes_nothing() {
        let mut s = ReplayStream::new(vec![ThreadEvent::access(0, 0)]);
        let mut chunk = PackedTrace::new();
        assert!(!s.fill_packed(&mut chunk, 0));
        assert!(chunk.is_empty());
        assert_eq!(s.next_event(), ThreadEvent::access(0, 0));
    }
}
