//! CPI-proportional partitioning (paper §VI-A, Figure 12).
//!
//! At the end of each interval, each thread's next-interval way quota is
//! proportional to its CPI over the interval just ended:
//!
//! ```text
//! partition_t = CPI_t / Σ CPI_i × TotalCacheWays
//! ```
//!
//! The slowest (critical path) thread therefore receives the largest share.
//! The paper notes this scheme's naivete — it assumes giving ways to a
//! high-CPI thread always helps, i.e. it has no notion of cache
//! *sensitivity* — and the model-based scheme (§VI-B) supersedes it; both
//! are kept for comparison (and the model-based policy bootstraps with this
//! one).

use icp_cmp_sim::simulator::IntervalReport;
use icp_cmp_sim::stats::ThreadCounters;
use icp_cmp_sim::LatencyConfig;

use crate::policy::{proportional_allocation, PartitionDecision, Partitioner};

/// Propagates a predicted L2 miss count into a predicted CPI.
///
/// The simulator's timing model is additive: converting one L2 miss into a
/// hit removes exactly the DRAM portion of the miss latency from the
/// thread's active cycles. So a measured `(base_cpi, base_misses)` point
/// extrapolates linearly along the miss axis:
///
/// ```text
/// cpi(m) = base_cpi + penalty x (m - base_misses) / instructions
/// ```
///
/// The result is floored at 1.0 — the in-order model retires at most one
/// instruction per cycle — and returns `base_cpi` unchanged when
/// `instructions` is zero (nothing to predict over).
pub fn propagate_cpi(
    base_cpi: f64,
    instructions: u64,
    base_misses: f64,
    predicted_misses: f64,
    miss_penalty: f64,
) -> f64 {
    if instructions == 0 {
        return base_cpi;
    }
    let delta = miss_penalty * (predicted_misses - base_misses) / instructions as f64;
    (base_cpi + delta).max(1.0)
}

/// Estimates the per-miss DRAM penalty (cycles) a thread actually paid,
/// from its cumulative counters.
///
/// Self-calibrating inversion of the simulator's timing model: active
/// cycles decompose into 1 cycle per non-memory instruction, `l1_hit` per
/// access, `l2_hit` per L1 miss, and the MLP-divided DRAM term per L2
/// miss. Everything but the DRAM total is known from the counters, so the
/// residual divided by the miss count is the effective per-miss penalty —
/// no workload metadata needed. Bank conflict stalls (when enabled) land
/// in the residual too, which is conservative: they also scale with
/// misses. Clamped to `[1, l2_hit + 10 x memory]` (the extremes of the
/// MLP range); threads with no misses get the unoverlapped DRAM latency.
pub fn estimated_miss_penalty(counters: &ThreadCounters, latency: &LatencyConfig) -> f64 {
    let ceiling = (latency.l2_hit + latency.memory * 10) as f64;
    if counters.l2_misses == 0 {
        return latency.memory.max(1) as f64;
    }
    let accesses = counters.l1_hits + counters.l1_misses;
    let known = counters.instructions.saturating_sub(accesses)
        + accesses * latency.l1_hit
        + counters.l1_misses * latency.l2_hit;
    let dram_total = counters.active_cycles.saturating_sub(known);
    (dram_total as f64 / counters.l2_misses as f64).clamp(1.0, ceiling)
}

/// The §VI-A CPI-proportional policy.
#[derive(Clone, Debug)]
pub struct CpiProportionalPolicy {
    /// Every thread keeps at least this many ways (progress guarantee).
    min_ways: u32,
}

impl CpiProportionalPolicy {
    /// Creates the policy with a 1-way floor per thread.
    pub fn new() -> Self {
        CpiProportionalPolicy { min_ways: 1 }
    }

    /// Overrides the per-thread way floor.
    pub fn with_min_ways(min_ways: u32) -> Self {
        CpiProportionalPolicy { min_ways }
    }
}

impl Default for CpiProportionalPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Partitioner for CpiProportionalPolicy {
    fn name(&self) -> &'static str {
        "cpi-proportional"
    }

    fn repartition(&mut self, report: &IntervalReport, total_ways: u32) -> PartitionDecision {
        let cpis: Vec<f64> = report.threads.iter().map(|t| t.cpi).collect();
        PartitionDecision::Partition(proportional_allocation(&cpis, total_ways, self.min_ways))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(cpis: &[f64], ways: &[u32]) -> icp_cmp_sim::simulator::IntervalReport {
        crate::testutil::fake_report(0, cpis, ways)
    }

    #[test]
    fn slowest_thread_gets_most_ways() {
        let mut p = CpiProportionalPolicy::new();
        let r = fake_report(&[8.0, 2.0, 2.0, 2.0], &[16; 4]);
        let PartitionDecision::Partition(ways) = p.repartition(&r, 64) else {
            panic!("expected partition");
        };
        assert_eq!(ways.iter().sum::<u32>(), 64);
        assert!(ways[0] > ways[1] && ways[0] > ways[2] && ways[0] > ways[3]);
        // 8/(8+2+2+2) of the spare 60 + 1 floor = 35 ways for thread 0.
        assert!(ways[0] >= 30, "{ways:?}");
    }

    #[test]
    fn equal_cpis_give_equal_split() {
        let mut p = CpiProportionalPolicy::new();
        let r = fake_report(&[4.0; 4], &[16; 4]);
        let PartitionDecision::Partition(ways) = p.repartition(&r, 64) else {
            panic!("expected partition");
        };
        assert_eq!(ways, vec![16; 4]);
    }

    #[test]
    fn respects_min_ways_floor() {
        let mut p = CpiProportionalPolicy::with_min_ways(4);
        let r = fake_report(&[100.0, 0.1, 0.1, 0.1], &[16; 4]);
        let PartitionDecision::Partition(ways) = p.repartition(&r, 64) else {
            panic!("expected partition");
        };
        assert!(ways[1] >= 4 && ways[2] >= 4 && ways[3] >= 4, "{ways:?}");
        assert_eq!(ways.iter().sum::<u32>(), 64);
    }

    #[test]
    fn propagate_cpi_is_linear_in_misses_and_floored() {
        // +1000 misses at 50 cycles each over 100k instructions: +0.5 CPI.
        assert!((propagate_cpi(2.0, 100_000, 5_000.0, 6_000.0, 50.0) - 2.5).abs() < 1e-12);
        // Fewer misses than the base point: CPI drops symmetrically.
        assert!((propagate_cpi(2.0, 100_000, 5_000.0, 4_000.0, 50.0) - 1.5).abs() < 1e-12);
        // The in-order floor: predictions never go below 1 cycle/instr.
        assert_eq!(propagate_cpi(1.2, 1_000, 1_000.0, 0.0, 400.0), 1.0);
        // Degenerate input: no instructions means no extrapolation.
        assert_eq!(propagate_cpi(3.0, 0, 10.0, 99.0, 50.0), 3.0);
    }

    #[test]
    fn estimated_penalty_inverts_the_timing_model() {
        let latency = icp_cmp_sim::LatencyConfig { l1_hit: 1, l2_hit: 12, memory: 150 };
        // Hand-built counters: 1000 instructions, 400 accesses, 100 L1
        // misses, 40 L2 misses at an effective 75 cycles DRAM each.
        let mut c = icp_cmp_sim::stats::ThreadCounters {
            instructions: 1_000,
            l1_hits: 300,
            l1_misses: 100,
            l2_hits: 60,
            l2_misses: 40,
            active_cycles: (1_000 - 400) + 400 * latency.l1_hit + 100 * latency.l2_hit + 40 * 75,
            ..Default::default()
        };
        let p = super::estimated_miss_penalty(&c, &latency);
        assert!((p - 75.0).abs() < 1e-9, "{p}");
        // No misses: fall back to the unoverlapped DRAM latency.
        c.l2_misses = 0;
        assert_eq!(super::estimated_miss_penalty(&c, &latency), 150.0);
    }

    #[test]
    fn matches_paper_formula_modulo_rounding() {
        // CPIs 3.06, 2.96, 6.35, 2.95 (the paper's CG snapshot after
        // interval 1): thread 2 (0-based) must receive the dominant share.
        let mut p = CpiProportionalPolicy::new();
        let r = fake_report(&[3.06, 2.96, 6.35, 2.95], &[16; 4]);
        let PartitionDecision::Partition(ways) = p.repartition(&r, 64) else {
            panic!("expected partition");
        };
        let expect_t2 = 6.35 / (3.06 + 2.96 + 6.35 + 2.95) * 60.0 + 1.0;
        assert!((ways[2] as f64 - expect_t2).abs() <= 1.0, "{ways:?} vs {expect_t2}");
    }
}
