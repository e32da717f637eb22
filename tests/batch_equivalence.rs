//! Chunked vs per-event stream delivery must be bit-identical.
//!
//! The simulator refills a per-core ring through
//! `AccessStream::fill_packed`, asking for up to 256 events at a time, and
//! generators write those chunks natively for throughput. Because streams
//! are generation-only (the simulation never feeds state back into them),
//! prefetching events into a ring must not change any simulated outcome.
//! This suite forces the degenerate one-event-per-refill delivery through
//! a wrapper stream whose `fill_packed` hands over at most one event, and
//! asserts that a seeded 4-thread workload produces exactly the same
//! `IntervalReport` sequence and `GlobalStats` as native 256-event chunks,
//! under both partitioning policies.

use icp::runtime::{CpiProportionalPolicy, IntraAppRuntime, ModelBasedPolicy};
use icp::sim::stream::{AccessStream, ThreadEvent};
use icp::sim::{PackedTrace, Simulator, SystemConfig};
use icp::workloads::{suite, BenchmarkSpec, WorkloadScale};

/// Forces per-event delivery: every ring refill carries at most one event,
/// so the ring degenerates to one refill (and one virtual call) per event.
struct OneAtATime<S>(S);

impl<S: AccessStream> AccessStream for OneAtATime<S> {
    fn next_event(&mut self) -> ThreadEvent {
        self.0.next_event()
    }

    fn fill_packed(&mut self, out: &mut PackedTrace, cap: usize) -> bool {
        self.0.fill_packed(out, cap.min(1))
    }
}

fn streams(spec: &BenchmarkSpec, cfg: &SystemConfig, seed: u64) -> Vec<Box<dyn AccessStream>> {
    spec.build_streams(cfg, WorkloadScale::Test, seed)
}

fn unbatched(spec: &BenchmarkSpec, cfg: &SystemConfig, seed: u64) -> Vec<Box<dyn AccessStream>> {
    spec.build_streams(cfg, WorkloadScale::Test, seed)
        .into_iter()
        .map(|s| Box::new(OneAtATime(s)) as Box<dyn AccessStream>)
        .collect()
}

/// Raw simulator (fixed equal partition): full interval-report equivalence.
#[test]
fn raw_interval_reports_identical() {
    let cfg = SystemConfig::scaled_down();
    let spec = suite::cg();
    let seed = 0x5EED_0001;

    let mut batched = Simulator::new(cfg, streams(&spec, &cfg, seed));
    let mut perevent = Simulator::new(cfg, unbatched(&spec, &cfg, seed));

    loop {
        let a = batched.run_interval();
        let b = perevent.run_interval();
        match (a, b) {
            (None, None) => break,
            (Some(ra), Some(rb)) => {
                assert_eq!(ra.index, rb.index);
                assert_eq!(ra.wall_cycles, rb.wall_cycles, "interval {}", ra.index);
                assert_eq!(ra.finished, rb.finished, "interval {}", ra.index);
                for (ta, tb) in ra.threads.iter().zip(&rb.threads) {
                    assert_eq!(ta.counters, tb.counters, "interval {}", ra.index);
                    assert_eq!(ta.ways, tb.ways, "interval {}", ra.index);
                }
                if ra.finished {
                    break;
                }
            }
            (a, b) => panic!(
                "stream delivery changed interval count: batched={:?} per-event={:?}",
                a.map(|r| r.index),
                b.map(|r| r.index)
            ),
        }
    }
    assert_eq!(batched.stats(), perevent.stats());
    assert_eq!(batched.wall_cycles(), perevent.wall_cycles());
}

/// CPI-proportional policy: same GlobalStats under both deliveries.
#[test]
fn cpi_proportional_stats_identical() {
    let cfg = SystemConfig::scaled_down();
    let spec = suite::ft();
    let seed = 0x5EED_0002;

    let mut sim_a = Simulator::new(cfg, streams(&spec, &cfg, seed));
    let mut rt_a = IntraAppRuntime::new(CpiProportionalPolicy::new(), &cfg);
    let out_a = rt_a.execute(&mut sim_a);

    let mut sim_b = Simulator::new(cfg, unbatched(&spec, &cfg, seed));
    let mut rt_b = IntraAppRuntime::new(CpiProportionalPolicy::new(), &cfg);
    let out_b = rt_b.execute(&mut sim_b);

    assert_eq!(out_a.wall_cycles, out_b.wall_cycles);
    assert_eq!(out_a.records.len(), out_b.records.len());
    for (ra, rb) in out_a.records.iter().zip(&out_b.records) {
        assert_eq!(ra.ways, rb.ways, "interval {}", ra.index);
        assert_eq!(ra.l2_misses, rb.l2_misses, "interval {}", ra.index);
        assert_eq!(ra.instructions, rb.instructions, "interval {}", ra.index);
    }
    assert_eq!(sim_a.stats(), sim_b.stats());
}

/// Model-based policy: same GlobalStats under both deliveries.
#[test]
fn model_based_stats_identical() {
    let cfg = SystemConfig::scaled_down();
    let spec = suite::mgrid();
    let seed = 0x5EED_0003;

    let mut sim_a = Simulator::new(cfg, streams(&spec, &cfg, seed));
    let mut rt_a = IntraAppRuntime::new(ModelBasedPolicy::new(), &cfg);
    let out_a = rt_a.execute(&mut sim_a);

    let mut sim_b = Simulator::new(cfg, unbatched(&spec, &cfg, seed));
    let mut rt_b = IntraAppRuntime::new(ModelBasedPolicy::new(), &cfg);
    let out_b = rt_b.execute(&mut sim_b);

    assert_eq!(out_a.wall_cycles, out_b.wall_cycles);
    assert_eq!(out_a.decision_count, out_b.decision_count);
    assert_eq!(sim_a.stats(), sim_b.stats());
}
