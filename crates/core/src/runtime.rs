//! The intra-application runtime system (paper §VI-C, Figures 16–17).
//!
//! [`IntraAppRuntime`] wires a [`Partitioner`] to a [`Machine`] (the
//! serial simulator or the sliced LLC): before
//! execution it applies the policy's initial partition, then at every
//! interval boundary it reads the per-thread counters (cache/CPI monitor),
//! asks the policy for a decision (partition engine) and applies it to the
//! L2 (configuration unit). It also keeps a full per-interval log, which is
//! what the experiment harness mines for the paper's time-series figures
//! (6, 7, 18) and performance comparisons (19–22).

use icp_cmp_sim::simulator::IntervalReport;
use icp_cmp_sim::stats::{InteractionStats, ThreadCounters};
use icp_cmp_sim::{Machine, SystemConfig};

use crate::policy::{PartitionDecision, Partitioner};

/// One interval's record in the execution log.
#[derive(Clone, Debug)]
pub struct IntervalRecord {
    /// 0-based interval index.
    pub index: usize,
    /// Way quota each thread had during the interval.
    pub ways: Vec<u32>,
    /// Per-thread CPI over the interval.
    pub cpi: Vec<f64>,
    /// Per-thread L2 misses over the interval.
    pub l2_misses: Vec<u64>,
    /// Per-thread instructions retired over the interval.
    pub instructions: Vec<u64>,
    /// Overall (instruction-weighted) CPI of the interval — the paper's
    /// Figure 18 "Overall CPI" column.
    pub overall_cpi: f64,
    /// Wall-clock cycles at the end of the interval.
    pub wall_cycles: u64,
}

impl IntervalRecord {
    fn from_report(r: &IntervalReport) -> Self {
        IntervalRecord {
            index: r.index,
            ways: r.threads.iter().map(|t| t.ways).collect(),
            cpi: r.threads.iter().map(|t| t.cpi).collect(),
            l2_misses: r.threads.iter().map(|t| t.counters.l2_misses).collect(),
            instructions: r.threads.iter().map(|t| t.counters.instructions).collect(),
            overall_cpi: r.overall_cpi(),
            wall_cycles: r.wall_cycles,
        }
    }
}

/// Result of executing a workload under a partitioning scheme.
#[derive(Clone, Debug)]
pub struct ExecutionOutcome {
    /// Scheme name (from the policy).
    pub scheme: &'static str,
    /// Total wall-clock cycles to complete the workload — the comparison
    /// metric for Figures 19–22 (performance = 1 / time, §IV-A1).
    pub wall_cycles: u64,
    /// Per-interval log.
    pub records: Vec<IntervalRecord>,
    /// Cumulative per-thread counters at completion.
    pub thread_totals: Vec<ThreadCounters>,
    /// Cumulative inter-thread interaction statistics.
    pub interactions: InteractionStats,
    /// Number of repartition decisions the policy made.
    pub decision_count: u64,
    /// Host-side wall time spent inside the policy's decision procedure
    /// (monitor-curve consumption + partition computation; the machine's
    /// monitor *export* is excluded — on a sliced LLC that is a per-slice
    /// merge charged to the machine, not the policy), in nanoseconds. The
    /// paper reports its runtime overhead as < 1.5% of execution time; at
    /// a simulated 1 GHz, 1 ns ≈ 1 cycle, so
    /// `decision_nanos / wall_cycles` estimates the same ratio.
    pub decision_nanos: u64,
    /// Final utility-monitor snapshot, when the simulator ran with a UMON
    /// enabled (`None` otherwise). Exported once at the end of the run —
    /// off the hot path, and observing through a UMON never changes any
    /// simulated counter, so enabling it leaves all other fields
    /// bit-identical. This is the recorded profile the analytical
    /// miss-curve fast path consumes.
    pub umon_profile: Option<icp_cmp_sim::UmonProfile>,
}

impl ExecutionOutcome {
    /// Performance as inverse execution time (higher is better).
    pub fn performance(&self) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        1.0 / self.wall_cycles as f64
    }

    /// Number of recorded intervals.
    pub fn intervals(&self) -> usize {
        self.records.len()
    }

    /// Speedup of `self` relative to `baseline` in percent, as the paper
    /// reports it (e.g. "+15% over the shared cache" means this scheme's
    /// performance is 1.15x the baseline's).
    pub fn improvement_percent_over(&self, baseline: &ExecutionOutcome) -> f64 {
        (baseline.wall_cycles as f64 / self.wall_cycles as f64 - 1.0) * 100.0
    }

    /// Estimated runtime-system overhead as a fraction of execution time,
    /// equating host nanoseconds with simulated cycles (1 GHz core). The
    /// paper reports < 1.5% (§VII); decisions every 15 M instructions make
    /// this tiny.
    pub fn estimated_overhead_fraction(&self) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        self.decision_nanos as f64 / self.wall_cycles as f64
    }
}

/// The interval-driven cache-partitioning runtime.
pub struct IntraAppRuntime<P: Partitioner> {
    policy: P,
    total_ways: u32,
}

impl<P: Partitioner> IntraAppRuntime<P> {
    /// Creates a runtime for the given policy and system configuration.
    pub fn new(policy: P, cfg: &SystemConfig) -> Self {
        IntraAppRuntime { policy, total_ways: cfg.l2.ways }
    }

    /// The wrapped policy (e.g. to read a [`crate::ModelBasedPolicy`]'s
    /// learned models after a run).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Runs the simulation to completion under this runtime's policy.
    ///
    /// The runtime overhead the paper measures (<1.5%, §VII) is the cost of
    /// reading counters and computing partitions once per 15 M
    /// instructions; in simulation that cost is outside simulated time, so
    /// reported cycles correspond to the paper's overhead-included numbers
    /// with the overhead already amortised away.
    pub fn execute<M: Machine>(&mut self, sim: &mut M) -> ExecutionOutcome {
        assert_eq!(
            sim.config().l2.ways,
            self.total_ways,
            "runtime configured for a different L2"
        );
        let threads = sim.config().cores;
        if self.policy.wants_umon() && !sim.umon_enabled() {
            // Default UMON sampling: one in 4 sets, mirroring UCP's sampled
            // auxiliary tag directories.
            sim.enable_umon(4.min(sim.config().l2.num_sets()));
        }
        let initial = self.policy.initial(threads, self.total_ways);
        apply(sim, initial);

        let mut records = Vec::new();
        let mut decision_count = 0u64;
        let mut decision_nanos = 0u64;
        while let Some(report) = sim.run_interval() {
            records.push(IntervalRecord::from_report(&report));
            if report.finished {
                break;
            }
            // The monitor export happens before the timer starts: on a
            // sliced LLC, `umon_view` merges per-slice monitors into one
            // owned view — a machine mechanism cost, not part of the
            // policy's decision procedure being measured.
            let umon = if self.policy.wants_umon() { sim.umon_view() } else { None };
            let started = std::time::Instant::now();
            if let Some(umon) = &umon {
                self.policy.observe_umon(umon);
            }
            let decision = self.policy.repartition(&report, self.total_ways);
            decision_nanos += started.elapsed().as_nanos() as u64;
            decision_count += 1;
            drop(umon);
            apply(sim, decision);
            if self.policy.wants_umon() {
                sim.decay_umon();
            }
        }

        ExecutionOutcome {
            scheme: self.policy.name(),
            wall_cycles: sim.wall_cycles(),
            records,
            thread_totals: sim.stats().threads.clone(),
            interactions: sim.stats().interactions,
            decision_count,
            decision_nanos,
            umon_profile: sim.umon_view().map(|u| u.snapshot()),
        }
    }

}

/// Applies a policy decision to the simulated L2 (the "configuration
/// unit" of Figure 17).
pub fn apply<M: Machine>(sim: &mut M, decision: PartitionDecision) {
    match decision {
        PartitionDecision::Keep => {}
        PartitionDecision::Partition(ways) => sim.set_partition(&ways),
        PartitionDecision::SetPartition(quotas) => sim.set_set_partition(&quotas),
        PartitionDecision::Unpartitioned => sim.set_unpartitioned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelBasedPolicy;
    use icp_cmp_sim::stream::{ReplayStream, ThreadEvent};
    use icp_cmp_sim::{CacheConfig, LatencyConfig, Simulator};

    fn cfg() -> SystemConfig {
        SystemConfig {
            cores: 2,
            l1: CacheConfig::new(2 * 64 * 2, 2, 64),
            l2: CacheConfig::new(4 * 64 * 4, 4, 64),
            llc: Default::default(),
            latency: LatencyConfig { l1_hit: 1, l2_hit: 10, memory: 100 },
            interval_instructions: 50,
            inclusive: false,
            coherence: false,
            prefetch_degree: 0,
            l2_banks: 0,
            victim_cache_lines: 0,
        }
    }

    fn stream(n: usize, stride: u64) -> ReplayStream {
        ReplayStream::new(
            (0..n)
                .map(|i| ThreadEvent::access(4, (i as u64 * stride) * 64))
                .collect(),
        )
    }

    #[test]
    fn runtime_logs_every_interval() {
        let c = cfg();
        let mut sim = Simulator::new(
            c,
            vec![Box::new(stream(40, 1)), Box::new(stream(40, 7))],
        );
        let mut rt = IntraAppRuntime::new(ModelBasedPolicy::new(), &c);
        let out = rt.execute(&mut sim);
        assert!(out.intervals() >= 7, "got {}", out.intervals());
        assert_eq!(out.scheme, "model-based");
        assert!(out.wall_cycles > 0);
        // Records are consistent: indices ascend, ways sum to total.
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.ways.iter().sum::<u32>(), 4);
        }
    }

    #[test]
    fn outcome_metrics() {
        let a = ExecutionOutcome {
            scheme: "a",
            wall_cycles: 800,
            records: vec![],
            thread_totals: vec![],
            interactions: Default::default(),
            decision_count: 0,
            decision_nanos: 0,
            umon_profile: None,
        };
        let b = ExecutionOutcome { wall_cycles: 1000, ..a.clone() };
        assert!((a.improvement_percent_over(&b) - 25.0).abs() < 1e-9);
        assert!((b.improvement_percent_over(&a) + 20.0).abs() < 1e-9);
        assert!(a.performance() > b.performance());
    }

    #[test]
    fn umon_export_leaves_simulated_state_bit_identical() {
        // Enabling the utility monitor only *observes*: the exported
        // profile rides along on the outcome while every simulated number
        // stays bit-identical to the unmonitored run.
        let c = cfg();
        let make = || {
            Simulator::new(c, vec![Box::new(stream(60, 1)) as _, Box::new(stream(60, 5)) as _])
        };
        let mut plain_sim = make();
        let plain = IntraAppRuntime::new(ModelBasedPolicy::new(), &c).execute(&mut plain_sim);
        let mut mon_sim = make();
        mon_sim.enable_umon(1);
        let monitored = IntraAppRuntime::new(ModelBasedPolicy::new(), &c).execute(&mut mon_sim);
        assert_eq!(plain.wall_cycles, monitored.wall_cycles);
        assert_eq!(plain.thread_totals, monitored.thread_totals);
        assert_eq!(plain.records.len(), monitored.records.len());
        assert!(plain.umon_profile.is_none());
        let profile = monitored.umon_profile.expect("profile exported");
        assert_eq!(profile.threads(), 2);
        assert_eq!(profile.ways, c.l2.ways);
        // The ATDs saw traffic: the profile is non-trivial.
        assert!(profile.atd_misses.iter().sum::<u64>() > 0);
    }

    #[test]
    fn initial_partition_is_equal_for_dynamic_policies() {
        let c = cfg();
        let mut sim = Simulator::new(
            c,
            vec![Box::new(stream(10, 1)), Box::new(stream(10, 3))],
        );
        let mut rt = IntraAppRuntime::new(ModelBasedPolicy::new(), &c);
        let out = rt.execute(&mut sim);
        // The first interval ran with the equal split (2/2 of 4 ways).
        assert_eq!(out.records[0].ways, vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "different L2")]
    fn config_mismatch_caught() {
        let c = cfg();
        let mut big = c;
        big.l2 = CacheConfig::new(8 * 64 * 8, 8, 64);
        let mut sim = Simulator::new(
            big,
            vec![Box::new(stream(1, 1)), Box::new(stream(1, 1))],
        );
        let mut rt = IntraAppRuntime::new(ModelBasedPolicy::new(), &c);
        rt.execute(&mut sim);
    }
}
