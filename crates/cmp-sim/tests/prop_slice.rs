//! Seeded property test of the sliced LLC's split/join pair (the
//! environment has no `proptest`; `icp_numeric::rng::Xoshiro256` drives
//! the case generation).
//!
//! Every case draws one to three random per-core event lists — accesses
//! over a handful of lines, so some slices receive nothing but the
//! replicated barriers, plus consecutive, leading and trailing barriers —
//! and checks, at 1, 2, 4 and 8 slices:
//!
//! * **`split(join(subs)) == subs`**: re-joining a core's per-slice
//!   sub-traces gives a stream that splits back into the same sub-traces,
//!   column for column (at one slice, `join` hands back the whole trace).
//! * **`from_traces` is `new`**: a machine built over the split sub-traces,
//!   or over the split of their join, runs to the wall clock and counters
//!   of `Llc::new` over the original streams.

use std::sync::Arc;

use icp_cmp_sim::config::LlcConfig;
use icp_cmp_sim::l2::equal_split;
use icp_cmp_sim::stream::{ReplayStream, ThreadEvent};
use icp_cmp_sim::{
    CacheConfig, GlobalStats, LatencyConfig, Llc, Machine, Measurable, PackedTrace, SliceTopology,
    SystemConfig,
};
use icp_numeric::rng::Xoshiro256;

/// Cases per slice count.
const CASES: u64 = 40;

/// `cores` cores, a 2-set 2-way L1 and a 16-set 4-way L2 (two sets per
/// slice at eight slices), 64 instructions per interval.
fn cfg(cores: usize, slices: u32) -> SystemConfig {
    SystemConfig {
        cores,
        l1: CacheConfig::new(2 * 64 * 2, 2, 64),
        l2: CacheConfig::new(16 * 64 * 4, 4, 64),
        llc: LlcConfig::sliced(slices),
        latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
        interval_instructions: 64,
        inclusive: false,
        coherence: false,
        prefetch_degree: 0,
        l2_banks: 0,
        victim_cache_lines: 0,
    }
}

/// A random event list of 0–119 events over 1–24 lines: one event in five
/// starts a run of one to three barriers, and one list in three ends in a
/// barrier.
fn random_events(rng: &mut Xoshiro256) -> Vec<ThreadEvent> {
    let lines = 1 + rng.next_bounded(24);
    let mut events = Vec::new();
    for _ in 0..rng.next_bounded(120) {
        if rng.next_bounded(5) == 0 {
            for _ in 0..=rng.next_bounded(3) {
                events.push(ThreadEvent::Barrier);
            }
        } else {
            events.push(ThreadEvent::Access {
                gap: rng.next_bounded(5) as u32,
                addr: rng.next_bounded(lines) * 64 + rng.next_bounded(64),
                write: rng.next_bool(0.3),
                mlp_tenths: 10 + rng.next_bounded(30) as u16,
            });
        }
    }
    if rng.next_bounded(3) == 0 {
        events.push(ThreadEvent::Barrier);
    }
    events
}

/// Runs a machine to completion under equal partitions.
fn run(mut llc: Llc) -> (u64, GlobalStats) {
    let quotas = equal_split(llc.config().l2.ways, llc.config().cores);
    llc.set_partition(&quotas);
    while let Some(r) = llc.run_interval() {
        if r.finished {
            break;
        }
    }
    (llc.wall_cycles(), llc.stats().clone())
}

#[test]
fn slice_split_join_roundtrip_property() {
    let mut rng = Xoshiro256::seed_from_u64(0x5111_7101);
    for slices in [1u32, 2, 4, 8] {
        for case in 0..CASES {
            let cores = 1 + rng.next_bounded(3) as usize;
            let cfg = cfg(cores, slices);
            let topology = SliceTopology::of(&cfg);
            let events: Vec<Vec<ThreadEvent>> =
                (0..cores).map(|_| random_events(&mut rng)).collect();
            let replays =
                || events.iter().map(|e| ReplayStream::new(e.clone())).collect::<Vec<_>>();
            let splits: Vec<Vec<Arc<PackedTrace>>> =
                replays().into_iter().map(|mut s| topology.split(&mut s)).collect();
            let joined: Vec<Vec<Arc<PackedTrace>>> = splits
                .iter()
                .map(|subs| {
                    assert_eq!(subs.len(), slices as usize, "N={slices} case {case}");
                    let whole = topology.join(subs);
                    if slices == 1 {
                        assert!(Arc::ptr_eq(&whole, &subs[0]), "N=1 case {case}: join copied");
                    }
                    let again = topology.split(&mut PackedTrace::stream(&whole));
                    assert_eq!(&again, subs, "N={slices} case {case}: split(join(subs)) != subs");
                    again
                })
                .collect();
            let reference = run(Llc::new(cfg, replays()));
            assert_eq!(run(Llc::from_traces(cfg, &splits)), reference, "N={slices} case {case}");
            assert_eq!(
                run(Llc::from_traces(cfg, &joined)),
                reference,
                "N={slices} case {case}: joined"
            );
        }
    }
}

/// The edge cases the random draw can miss: no events at all, barriers
/// only, and a single line (every access in one slice, the rest empty).
#[test]
fn slice_split_join_edge_cases() {
    let one_line: Vec<ThreadEvent> = (0..20)
        .map(|i| if i % 7 == 6 { ThreadEvent::Barrier } else { ThreadEvent::access(1, 128) })
        .collect();
    let lists = [vec![], vec![ThreadEvent::Barrier; 3], one_line];
    for slices in [1u32, 2, 4, 8] {
        let topology = SliceTopology::of(&cfg(1, slices));
        for (i, events) in lists.iter().enumerate() {
            let subs = topology.split(&mut ReplayStream::new(events.clone()));
            let barriers = events.iter().filter(|e| **e == ThreadEvent::Barrier).count();
            assert!(subs.iter().all(|s| s.barriers() == barriers), "N={slices} list {i}");
            let again = topology.split(&mut PackedTrace::stream(&topology.join(&subs)));
            assert_eq!(again, subs, "N={slices} list {i}");
        }
    }
}
