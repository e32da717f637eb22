//! Property-based tests of the simulator's timing and accounting
//! invariants under arbitrary event streams.

use icp::sim::stream::{ReplayStream, ThreadEvent};
use icp::sim::{CacheConfig, LatencyConfig, Simulator, SystemConfig};
use proptest::prelude::*;

fn cfg(interval: u64) -> SystemConfig {
    SystemConfig {
        cores: 2,
        l1: CacheConfig::new(2 * 64 * 2, 2, 64),
        l2: CacheConfig::new(4 * 64 * 4, 4, 64),
        llc: Default::default(),
        latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
        interval_instructions: interval,
        inclusive: false,
        coherence: false,
        prefetch_degree: 0,
        l2_banks: 0,
        victim_cache_lines: 0,
    }
}

/// Random per-thread event streams: accesses with small gaps plus
/// occasional barriers (paired across threads to avoid deadlock-free
/// semantics questions — barriers release when all unfinished threads
/// arrive, and finished threads don't block, so ANY barrier counts are
/// safe).
fn events_strategy() -> impl Strategy<Value = Vec<ThreadEvent>> {
    proptest::collection::vec(
        prop_oneof![
            8 => (0u32..6, 0u64..128, any::<bool>(), 1u16..80).prop_map(
                |(gap, line, write, mlp)| ThreadEvent::Access {
                    gap,
                    addr: line * 64,
                    write,
                    mlp_tenths: mlp.max(10),
                }
            ),
            1 => Just(ThreadEvent::Barrier),
        ],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accounting invariants hold for any stream pair: CPI >= 1, hierarchy
    /// counter conservation, instructions conserved across intervals, and
    /// wall clock bounds every thread's busy time.
    #[test]
    fn accounting_invariants(e0 in events_strategy(), e1 in events_strategy()) {
        let c = cfg(64);
        let mut sim = Simulator::new(
            c,
            vec![
                Box::new(ReplayStream::new(e0.clone())),
                Box::new(ReplayStream::new(e1.clone())),
            ],
        );
        let mut interval_insts = 0u64;
        while let Some(report) = sim.run_interval() {
            for ts in &report.threads {
                interval_insts += ts.counters.instructions;
            }
            if report.finished {
                break;
            }
        }
        let stats = sim.stats();
        for t in 0..2 {
            let c = stats.thread(t);
            prop_assert!(c.active_cycles >= c.instructions);
            prop_assert_eq!(c.l1_misses, c.l2_hits + c.l2_misses);
            prop_assert!(c.l1_hits + c.l1_misses <= c.instructions);
            prop_assert!(
                sim.wall_cycles() >= c.active_cycles,
                "wall {} < busy {}", sim.wall_cycles(), c.active_cycles
            );
        }
        prop_assert_eq!(interval_insts, stats.total_instructions());
        // Expected instruction count from the streams themselves.
        let expect = |es: &[ThreadEvent]| -> u64 {
            es.iter()
                .map(|e| match e {
                    ThreadEvent::Access { gap, .. } => *gap as u64 + 1,
                    _ => 0,
                })
                .sum()
        };
        prop_assert_eq!(stats.total_instructions(), expect(&e0) + expect(&e1));
        sim.l2().check_invariants();
    }

    /// The simulator is deterministic for any input streams.
    #[test]
    fn replay_determinism(e0 in events_strategy(), e1 in events_strategy()) {
        let run = || {
            let mut sim = Simulator::new(
                cfg(64),
                vec![
                    Box::new(ReplayStream::new(e0.clone())) as Box<dyn icp::sim::stream::AccessStream>,
                    Box::new(ReplayStream::new(e1.clone())),
                ],
            );
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
            }
            (sim.wall_cycles(), sim.stats().threads.clone())
        };
        let (w1, s1) = run();
        let (w2, s2) = run();
        prop_assert_eq!(w1, w2);
        prop_assert_eq!(s1, s2);
    }

    /// Partitioning mid-run never breaks accounting or ownership state.
    #[test]
    fn random_repartitioning_is_safe(
        e0 in events_strategy(),
        e1 in events_strategy(),
        quotas in proptest::collection::vec(1u32..4, 0..8),
    ) {
        let mut sim = Simulator::new(
            cfg(32),
            vec![
                Box::new(ReplayStream::new(e0)),
                Box::new(ReplayStream::new(e1)),
            ],
        );
        let mut qi = 0;
        while let Some(r) = sim.run_interval() {
            if r.finished {
                break;
            }
            if qi < quotas.len() {
                let a = quotas[qi].min(3);
                sim.set_partition(&[a, 4 - a]);
                qi += 1;
            } else {
                sim.set_unpartitioned();
            }
        }
        sim.l2().check_invariants();
    }

    /// Higher MLP never makes an identical single-thread stream slower.
    #[test]
    fn mlp_monotonicity(lines in proptest::collection::vec(0u64..64, 10..100)) {
        let run = |mlp: u16| {
            let events: Vec<ThreadEvent> = lines
                .iter()
                .map(|l| ThreadEvent::Access { gap: 1, addr: l * 64, write: false, mlp_tenths: mlp })
                .collect();
            let mut c = cfg(1_000_000);
            c.cores = 1;
            let mut sim = Simulator::new(c, vec![Box::new(ReplayStream::new(events))]);
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
            }
            sim.wall_cycles()
        };
        let serial = run(10);
        let overlapped = run(40);
        prop_assert!(overlapped <= serial, "{overlapped} > {serial}");
    }
}
