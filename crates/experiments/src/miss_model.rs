//! Analytical miss-curve fast path for sensitivity sweeps.
//!
//! A sweep axis evaluates three schemes at every point; exact mode
//! simulates all of them. But one *profiling* simulation per
//! (benchmark, geometry, seed) — a static-equal run with a passive
//! full-run utility monitor attached — already determines the whole
//! misses-vs-ways curve of every thread by the LRU inclusion property
//! ([`icp_cmp_sim::UmonProfile`]). This module turns that profile into a
//! [`BenchPredictor`] that estimates, without further simulation:
//!
//! * per-thread miss counts at any (fractional) way allocation, by
//!   *ratio anchoring* — the simulated static-equal miss count scaled by
//!   the UMON curve's relative change from the static-equal allocation.
//!   The per-thread ATD models a private cache, so it overcounts misses
//!   whenever threads share data (a line fetched by any thread serves all
//!   of them regardless of way quotas — up to 80% of would-be private
//!   misses are covered this way in the shared-heavy probes); anchoring on
//!   the *ratio* assumes that coverage fraction is allocation-independent,
//!   which cancels the offset where a delta would not;
//! * per-thread CPI via [`icp_core::propagate_cpi`], with the per-miss
//!   penalty recovered from the profile run's own counters by
//!   [`icp_core::estimated_miss_penalty`] (the timing model is linear in
//!   misses, so this inversion is exact up to MLP rounding);
//! * wall cycles for a whole allocation, scaling the simulated wall by the
//!   predicted change of the critical (max active cycles) thread;
//! * scheme outcomes: static-equal (the profile run itself — exact),
//!   shared (an occupancy fixed point: each thread's effective ways settle
//!   proportional to its fill rate), and model-based (a greedy hill-climb
//!   on predicted wall cycles, mirroring the runtime policy's search).
//!
//! The fast path is a *screening* tool: sweeps use it to predict the
//! dynamic scheme's improvements at every axis point and fall back to
//! exact simulation wherever a predicted improvement is within a margin of
//! zero, so reported *signs* are always simulation-confirmed.

use icp_cmp_sim::SystemConfig;
use icp_core::{estimated_miss_penalty, propagate_cpi, ExecutionOutcome};
use icp_hot_path::deterministic;
use icp_numeric::MonotoneDecreasing;

/// Analytical per-benchmark performance predictor, built from one
/// profiled static-equal simulation.
#[derive(Clone, Debug)]
pub struct BenchPredictor {
    /// Per-thread whole-cache miss curves over ways `0..=W` (UMON counts
    /// scaled by the set-sampling factor).
    curves: Vec<MonotoneDecreasing>,
    /// Per-thread way allocation of the profile run (anchor point).
    base_ways: Vec<f64>,
    /// Per-thread simulated L2 misses of the profile run.
    base_misses: Vec<f64>,
    /// Per-thread simulated CPI of the profile run.
    base_cpi: Vec<f64>,
    /// Per-thread instruction counts.
    instructions: Vec<u64>,
    /// Per-thread estimated cycles per additional L2 miss.
    penalty: Vec<f64>,
    /// Simulated wall cycles of the profile run.
    base_wall: f64,
    /// Max per-thread active cycles of the profile run (critical path).
    base_max_active: f64,
    /// Total partitionable ways.
    total_ways: u32,
}

impl BenchPredictor {
    /// Builds a predictor from a profiled outcome (see
    /// [`crate::runner::ExperimentConfig::run_profiled`]). Returns `None`
    /// when the outcome carries no UMON profile or the profile is
    /// degenerate (no threads, a thread with no instructions, or a miss
    /// curve too short to fit).
    pub fn from_outcome(out: &ExecutionOutcome, sys: &SystemConfig) -> Option<Self> {
        let profile = out.umon_profile.as_ref()?;
        let threads = profile.threads();
        if threads == 0 || out.thread_totals.len() != threads {
            return None;
        }
        let total_ways = profile.ways;
        if total_ways < 1 {
            return None;
        }
        let scale = profile.sample_scale();

        // Anchor allocation: the ways each thread actually held. The last
        // interval record is authoritative (static schemes never change
        // it); fall back to an equal split for record-less outcomes.
        let base_ways: Vec<f64> = match out.records.last() {
            Some(r) if r.ways.len() == threads => r.ways.iter().map(|&w| w as f64).collect(),
            _ => vec![total_ways as f64 / threads as f64; threads],
        };

        let mut curves = Vec::with_capacity(threads);
        let mut base_misses = Vec::with_capacity(threads);
        let mut base_cpi = Vec::with_capacity(threads);
        let mut instructions = Vec::with_capacity(threads);
        let mut penalty = Vec::with_capacity(threads);
        let mut base_max_active = 0.0f64;
        for (t, c) in out.thread_totals.iter().enumerate() {
            if c.instructions == 0 {
                return None;
            }
            let ys: Vec<f64> = (0..=total_ways)
                .map(|w| profile.misses_with_ways(t, w) as f64 * scale)
                .collect();
            curves.push(MonotoneDecreasing::fit(&ys).ok()?);
            base_misses.push(c.l2_misses as f64);
            base_cpi.push(c.active_cycles as f64 / c.instructions as f64);
            instructions.push(c.instructions);
            penalty.push(estimated_miss_penalty(c, &sys.latency));
            base_max_active = base_max_active.max(c.active_cycles as f64);
        }
        if base_max_active <= 0.0 || out.wall_cycles == 0 {
            return None;
        }
        Some(BenchPredictor {
            curves,
            base_ways,
            base_misses,
            base_cpi,
            instructions,
            penalty,
            base_wall: out.wall_cycles as f64,
            base_max_active,
            total_ways,
        })
    }

    /// Number of modelled threads.
    pub fn threads(&self) -> usize {
        self.curves.len()
    }

    /// Total partitionable ways.
    pub fn total_ways(&self) -> u32 {
        self.total_ways
    }

    /// Predicted whole-run L2 misses of `thread` at a (fractional) way
    /// allocation: the simulated anchor scaled by the UMON curve's ratio
    /// to its anchor level (falling back to an additive delta when the
    /// anchor level is too small to divide by), floored at zero.
    #[deterministic]
    pub fn predict_thread_misses(&self, thread: usize, ways: f64) -> f64 {
        let (Some(curve), Some(&anchor)) = (self.curves.get(thread), self.base_ways.get(thread))
        else {
            return 0.0;
        };
        let base = self.base_misses.get(thread).copied().unwrap_or(0.0);
        let anchor_level = curve.eval(anchor);
        if anchor_level > 1.0 {
            (base * curve.eval(ways) / anchor_level).max(0.0)
        } else {
            (base + curve.eval(ways) - anchor_level).max(0.0)
        }
    }

    /// Predicted CPI of `thread` at a way allocation, by linear miss-cost
    /// propagation from the profiled anchor.
    #[deterministic]
    pub fn predict_thread_cpi(&self, thread: usize, ways: f64) -> f64 {
        let base_cpi = self.base_cpi.get(thread).copied().unwrap_or(1.0);
        let instr = self.instructions.get(thread).copied().unwrap_or(0);
        let base = self.base_misses.get(thread).copied().unwrap_or(0.0);
        let pen = self.penalty.get(thread).copied().unwrap_or(1.0);
        propagate_cpi(base_cpi, instr, base, self.predict_thread_misses(thread, ways), pen)
    }

    /// Predicted wall cycles for a whole allocation: the profile wall
    /// scaled by the predicted change of the critical thread's active
    /// cycles (barrier structure is allocation-independent, so the wall
    /// tracks the slowest thread).
    #[deterministic]
    pub fn predict_wall(&self, allocation: &[f64]) -> f64 {
        let mut max_active = 0.0f64;
        // ORDER: fixed thread order; f64 max is order-insensitive here.
        for t in 0..self.threads() {
            let ways = allocation.get(t).copied().unwrap_or(0.0);
            let active = self.instructions.get(t).copied().unwrap_or(0) as f64
                * self.predict_thread_cpi(t, ways);
            max_active = max_active.max(active);
        }
        self.base_wall * max_active / self.base_max_active
    }

    /// Predicted wall cycles of the static-equal scheme — the profile run
    /// itself, so this is the simulated value, exact by construction.
    #[deterministic]
    pub fn predict_equal_wall(&self) -> f64 {
        self.base_wall
    }

    /// Predicted wall cycles under a plain shared cache.
    ///
    /// In a shared LRU cache a thread's steady-state occupancy is
    /// proportional to its fill (miss) rate. That is a fixed point —
    /// occupancy determines misses determine occupancy — solved here by
    /// damped iteration from an equal split; ~tens of iterations settle
    /// well below way granularity.
    #[deterministic]
    pub fn predict_shared_wall(&self) -> f64 {
        let n = self.threads();
        if n == 0 {
            return self.base_wall;
        }
        let total = self.total_ways as f64;
        let mut occ = vec![total / n as f64; n];
        for _ in 0..40 {
            let rates: Vec<f64> =
                (0..n).map(|t| self.predict_thread_misses(t, occ[t]).max(1.0)).collect();
            // ORDER: fixed thread order; sum feeds a ratio, not a digest.
            let sum: f64 = rates.iter().sum();
            for t in 0..n {
                let target = total * rates[t] / sum;
                occ[t] += 0.5 * (target - occ[t]);
            }
        }
        self.predict_wall(&occ)
    }

    /// Predicted model-based partition and its wall cycles: greedy
    /// hill-climb moving one way at a time to the predicted critical
    /// thread (the same objective the runtime policy optimises), stopping
    /// when no single move improves the predicted wall.
    #[deterministic]
    pub fn predict_model_based(&self) -> (Vec<u32>, f64) {
        let n = self.threads();
        if n == 0 {
            return (Vec::new(), self.base_wall);
        }
        let mut alloc: Vec<u32> = equal_split(self.total_ways, n);
        let as_f64 = |a: &[u32]| a.iter().map(|&w| w as f64).collect::<Vec<f64>>();
        let mut best = self.predict_wall(&as_f64(&alloc));
        // At most W moves: each accepted move strictly improves the
        // predicted wall, which is bounded below.
        for _ in 0..self.total_ways {
            let mut improved = false;
            let mut best_move = (0usize, 0usize, best);
            for to in 0..n {
                for from in 0..n {
                    if from == to || alloc[from] <= 1 {
                        continue;
                    }
                    let mut trial = alloc.clone();
                    trial[from] -= 1;
                    trial[to] += 1;
                    let wall = self.predict_wall(&as_f64(&trial));
                    if wall < best_move.2 - 1e-9 {
                        best_move = (from, to, wall);
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
            alloc[best_move.0] -= 1;
            alloc[best_move.1] += 1;
            best = best_move.2;
        }
        (alloc, best)
    }

    /// Predicted improvements of the model-based scheme over
    /// (shared, static-equal), in percent, matching
    /// [`icp_core::ExecutionOutcome::improvement_percent_over`].
    #[deterministic]
    pub fn improvements(&self) -> (f64, f64) {
        let (_, mb) = self.predict_model_based();
        let shared = self.predict_shared_wall();
        let equal = self.predict_equal_wall();
        if mb <= 0.0 {
            return (0.0, 0.0);
        }
        ((shared / mb - 1.0) * 100.0, (equal / mb - 1.0) * 100.0)
    }
}

/// Equal split of `total` ways over `n` threads, earlier threads taking
/// the remainder — the same convention as the static-equal policy.
#[deterministic]
fn equal_split(total: u32, n: usize) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    let base = total / n as u32;
    let rem = (total as usize) % n;
    (0..n).map(|t| base + u32::from(t < rem)).collect()
}

/// The *cluster-wise* equal split: `total` ways divided equally among
/// `clusters` contiguous thread groups first, then equally within each
/// group — the static baseline of the hierarchical (cluster-then-
/// partition) schemes, matching `icp_core::HierarchicalPolicy`'s
/// materialisation convention.
///
/// This is the per-cluster re-anchor point for sliced configs: when way
/// counts don't divide evenly it differs from the flat equal split (e.g.
/// 64 ways, 6 threads, 2 clusters: `[11, 11, 10, 11, 11, 10]` vs the flat
/// `[11, 11, 11, 11, 10, 10]`), and a [`BenchPredictor`] profiled at the
/// flat split would carry that anchor error into every sliced-config
/// prediction.
#[deterministic]
pub fn clustered_equal_split(total: u32, threads: usize, clusters: usize) -> Vec<u32> {
    if clusters <= 1 || !threads.is_multiple_of(clusters) {
        return equal_split(total, threads);
    }
    let group = threads / clusters;
    let mut out = Vec::with_capacity(threads);
    for budget in equal_split(total, clusters) {
        out.extend(equal_split(budget, group));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ExperimentConfig, Scheme};
    use icp_workloads::suite;

    fn predictor_for(bench: &icp_workloads::BenchmarkSpec) -> (BenchPredictor, ExperimentConfig) {
        let cfg = ExperimentConfig::test();
        let out = cfg.run_profiled(bench, &Scheme::StaticEqual);
        let p = BenchPredictor::from_outcome(&out, &cfg.system)
            .expect("profiled static-equal run must yield a predictor");
        (p, cfg)
    }

    #[test]
    fn anchor_point_reproduces_the_simulation_exactly() {
        let (p, cfg) = predictor_for(&suite::swim());
        let out = cfg.run(&suite::swim(), &Scheme::StaticEqual);
        // At the anchor allocation the delta is zero by construction.
        let per = p.total_ways() as f64 / p.threads() as f64;
        for t in 0..p.threads() {
            let m = p.predict_thread_misses(t, per);
            assert!(
                (m - out.thread_totals[t].l2_misses as f64).abs() < 1e-6,
                "thread {t}: {m} vs {}",
                out.thread_totals[t].l2_misses
            );
        }
        assert!((p.predict_equal_wall() - out.wall_cycles as f64).abs() < 1e-6);
        assert!(
            (p.predict_wall(&vec![per; p.threads()]) - out.wall_cycles as f64).abs()
                < out.wall_cycles as f64 * 1e-9
        );
    }

    #[test]
    fn fewer_ways_never_predicts_fewer_misses() {
        let (p, _) = predictor_for(&suite::cg());
        for t in 0..p.threads() {
            let mut prev = p.predict_thread_misses(t, 0.5);
            let mut w = 1.0;
            while w <= p.total_ways() as f64 {
                let m = p.predict_thread_misses(t, w);
                assert!(m <= prev + 1e-9, "thread {t} at {w} ways");
                prev = m;
                w += 0.5;
            }
        }
    }

    #[test]
    fn predicted_misses_track_simulation_at_off_anchor_partitions() {
        // The accuracy property behind the fast path: predict misses at a
        // partition the profiler never saw, then simulate that partition
        // and compare per-thread relative error.
        let (p, cfg) = predictor_for(&suite::swim());
        let total = p.total_ways();
        let n = p.threads();
        let mut ways = equal_split(total, n);
        // A decidedly unequal partition: thread 0 gets double share.
        let take = ways[0] / 2;
        ways[0] += take;
        let donors = n - 1;
        for (i, w) in ways.iter_mut().enumerate().skip(1) {
            *w -= take / donors as u32 + u32::from(i - 1 < (take as usize % donors));
        }
        assert_eq!(ways.iter().sum::<u32>(), total);
        let out = cfg.run(&suite::swim(), &Scheme::StaticCustom(ways.clone()));
        for (t, &w) in ways.iter().enumerate() {
            let predicted = p.predict_thread_misses(t, w as f64);
            let actual = out.thread_totals[t].l2_misses as f64;
            let rel = (predicted - actual).abs() / actual.max(1.0);
            assert!(
                rel < 0.35,
                "thread {t}: predicted {predicted:.0} vs simulated {actual:.0} ({:.1}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn model_based_search_conserves_ways_and_never_loses_to_equal() {
        for bench in [suite::swim(), suite::cg(), suite::ft()] {
            let (p, _) = predictor_for(&bench);
            let (alloc, wall) = p.predict_model_based();
            assert_eq!(alloc.iter().sum::<u32>(), p.total_ways(), "{}", bench.name);
            assert!(alloc.iter().all(|&w| w >= 1), "{}", bench.name);
            // Greedy starts from the equal split, so it can only improve.
            assert!(wall <= p.predict_equal_wall() + 1e-6, "{}", bench.name);
            assert!(wall > 0.0, "{}", bench.name);
        }
    }

    #[test]
    fn shared_fixed_point_is_finite_and_positive() {
        for bench in [suite::swim(), suite::ft()] {
            let (p, _) = predictor_for(&bench);
            let wall = p.predict_shared_wall();
            assert!(wall.is_finite() && wall > 0.0, "{}", bench.name);
            let (s, e) = p.improvements();
            assert!(s.is_finite() && e.is_finite(), "{}", bench.name);
        }
    }

    #[test]
    fn equal_split_matches_policy_convention() {
        assert_eq!(equal_split(64, 4), vec![16; 4]);
        assert_eq!(equal_split(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(equal_split(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(equal_split(5, 0), Vec::<u32>::new());
    }

    #[test]
    fn clustered_split_groups_then_divides() {
        // Divisible case: identical to the flat split.
        assert_eq!(clustered_equal_split(64, 16, 4), vec![4; 16]);
        // Remainders land per cluster, not globally.
        assert_eq!(clustered_equal_split(64, 6, 2), vec![11, 11, 10, 11, 11, 10]);
        assert_eq!(equal_split(64, 6), vec![11, 11, 11, 11, 10, 10]);
        // Degenerate cluster counts fall back to the flat split.
        assert_eq!(clustered_equal_split(10, 4, 1), equal_split(10, 4));
        assert_eq!(clustered_equal_split(10, 5, 2), equal_split(10, 5));
    }

    #[test]
    fn clustered_anchor_reproduces_sliced_simulation() {
        // The per-cluster re-anchor property: profile a *sliced* config at
        // the cluster's equal split and the predictor must reproduce that
        // run exactly at its anchor — the invariant the sweep fast path
        // relies on for sliced axis points.
        let cfg = ExperimentConfig::test().with_topology(6, 2);
        let anchor = clustered_equal_split(cfg.system.l2.ways, 6, 2);
        let out = cfg.run_profiled(&suite::swim(), &Scheme::StaticCustom(anchor.clone()));
        let p = BenchPredictor::from_outcome(&out, &cfg.system)
            .expect("sliced profiled run must yield a predictor");
        for (t, &w) in anchor.iter().enumerate() {
            let m = p.predict_thread_misses(t, w as f64);
            assert!(
                (m - out.thread_totals[t].l2_misses as f64).abs() < 1e-6,
                "thread {t}: {m} vs {}",
                out.thread_totals[t].l2_misses
            );
        }
        let alloc: Vec<f64> = anchor.iter().map(|&w| w as f64).collect();
        assert!(
            (p.predict_wall(&alloc) - out.wall_cycles as f64).abs()
                < out.wall_cycles as f64 * 1e-9
        );
    }
}
