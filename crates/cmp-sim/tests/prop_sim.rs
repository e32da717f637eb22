//! Hand-rolled property test of the simulator's timing and accounting
//! invariants under arbitrary event streams (the environment has no
//! `proptest`; `icp_numeric::rng::Xoshiro256` drives the case generation).
//!
//! Every case drives the simulator from random [`ReplayStream`]s over a
//! tiny two-core machine (a 4-set, 4-way L2), so barriers, evictions and
//! interval boundaries all occur within a few hundred events:
//!
//! * **Accounting**: CPI ≥ 1, L1 misses = L2 hits + L2 misses, accesses
//!   never exceed instructions, the wall clock bounds every thread's busy
//!   time, interval reports sum to the run's totals, and the totals equal
//!   the instructions the streams carry.
//! * **Replay determinism**: two runs over the same streams agree on the
//!   wall clock and every per-thread counter.
//! * **Repartitioning safety**: way partitions applied at random interval
//!   boundaries, then a return to shared mode, never break the L2's
//!   ownership state.
//! * **MLP monotonicity**: higher memory-level parallelism never makes an
//!   identical single-thread stream slower.
//!
//! Under `--features sanitize` the simulator also shadow-verifies its
//! caches at every ring refill of every case.

use icp_cmp_sim::stream::{ReplayStream, ThreadEvent};
use icp_cmp_sim::{CacheConfig, LatencyConfig, Simulator, SystemConfig, ThreadCounters};
use icp_numeric::rng::Xoshiro256;

/// Cases per property.
const CASES: u64 = 48;

/// Two cores, a 4-set 2-way L1 and a 4-set 4-way L2, with `interval`
/// instructions per execution interval.
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

/// A random per-thread event list of 0–199 events: accesses to 128 lines
/// with small gaps, random store flags and MLP, and one barrier in nine.
/// Any barrier counts are safe: a barrier releases once every unfinished
/// thread arrives, and finished threads never block it.
fn random_events(rng: &mut Xoshiro256) -> Vec<ThreadEvent> {
    let len = rng.next_bounded(200) as usize;
    (0..len)
        .map(|_| {
            if rng.next_bounded(9) == 0 {
                ThreadEvent::Barrier
            } else {
                ThreadEvent::Access {
                    gap: rng.next_bounded(6) as u32,
                    addr: rng.next_bounded(128) * 64,
                    write: rng.next_bool(0.5),
                    mlp_tenths: (rng.next_bounded(79) as u16 + 1).max(10),
                }
            }
        })
        .collect()
}

/// A two-core simulator replaying `e0` and `e1`.
fn simulator(interval: u64, e0: &[ThreadEvent], e1: &[ThreadEvent]) -> Simulator {
    Simulator::new(
        cfg(interval),
        vec![
            Box::new(ReplayStream::new(e0.to_vec())),
            Box::new(ReplayStream::new(e1.to_vec())),
        ],
    )
}

/// Instructions a stream retires: one per access plus its gap.
fn instructions(events: &[ThreadEvent]) -> u64 {
    events
        .iter()
        .map(|e| match e {
            ThreadEvent::Access { gap, .. } => u64::from(*gap) + 1,
            _ => 0,
        })
        .sum()
}

#[test]
fn accounting_invariants_property() {
    let mut rng = Xoshiro256::seed_from_u64(0xACC0_0417);
    for case in 0..CASES {
        let (e0, e1) = (random_events(&mut rng), random_events(&mut rng));
        let mut sim = simulator(64, &e0, &e1);
        let mut interval_insts = 0u64;
        while let Some(report) = sim.run_interval() {
            interval_insts += report.threads.iter().map(|t| t.counters.instructions).sum::<u64>();
            if report.finished {
                break;
            }
        }
        let stats = sim.stats();
        for t in 0..2 {
            let c = stats.thread(t);
            assert!(c.active_cycles >= c.instructions, "case {case} thread {t}: CPI < 1");
            assert_eq!(c.l1_misses, c.l2_hits + c.l2_misses, "case {case} thread {t}");
            assert!(c.l1_hits + c.l1_misses <= c.instructions, "case {case} thread {t}");
            assert!(
                sim.wall_cycles() >= c.active_cycles,
                "case {case} thread {t}: wall {} < busy {}",
                sim.wall_cycles(),
                c.active_cycles
            );
        }
        assert_eq!(interval_insts, stats.total_instructions(), "case {case}");
        assert_eq!(
            stats.total_instructions(),
            instructions(&e0) + instructions(&e1),
            "case {case}: instructions the streams carry"
        );
        sim.l2().check_invariants();
    }
}

#[test]
fn replay_determinism_property() {
    let mut rng = Xoshiro256::seed_from_u64(0xDE7E_2317);
    for case in 0..CASES {
        let (e0, e1) = (random_events(&mut rng), random_events(&mut rng));
        let run = || -> (u64, Vec<ThreadCounters>) {
            let mut sim = simulator(64, &e0, &e1);
            while let Some(r) = sim.run_interval() {
                if r.finished {
                    break;
                }
            }
            (sim.wall_cycles(), sim.stats().threads.clone())
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn random_repartitioning_is_safe_property() {
    let mut rng = Xoshiro256::seed_from_u64(0x9A27_1710);
    for case in 0..CASES {
        let (e0, e1) = (random_events(&mut rng), random_events(&mut rng));
        // Up to 7 partitions, thread 0 taking 1–3 of the 4 ways.
        let quotas: Vec<u32> =
            (0..rng.next_bounded(8)).map(|_| rng.next_bounded(3) as u32 + 1).collect();
        let mut sim = simulator(32, &e0, &e1);
        let mut next = quotas.iter();
        while let Some(r) = sim.run_interval() {
            if r.finished {
                break;
            }
            match next.next() {
                Some(&a) => sim.set_partition(&[a, 4 - a]),
                None => sim.set_unpartitioned(),
            }
        }
        sim.l2().check_invariants();
        assert!(sim.is_finished(), "case {case}: run did not complete");
    }
}

#[test]
fn mlp_monotonicity_property() {
    let mut rng = Xoshiro256::seed_from_u64(0x3191_0A1E);
    for case in 0..CASES {
        let lines: Vec<u64> =
            (0..10 + rng.next_bounded(90)).map(|_| rng.next_bounded(64)).collect();
        let run = |mlp_tenths: u16| {
            let events = lines
                .iter()
                .map(|l| ThreadEvent::Access { gap: 1, addr: l * 64, write: false, mlp_tenths })
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
        let (serial, overlapped) = (run(10), run(40));
        assert!(overlapped <= serial, "case {case}: {overlapped} > {serial}");
    }
}
