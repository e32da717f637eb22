//! Sensitivity sweeps: how the headline comparison changes with system
//! parameters.
//!
//! The paper's §VII-C varies the core count (Figure 22); a reproduction
//! should also check that its conclusions are not an artifact of one cache
//! size or interval length. Each sweep runs a probe subset of the suite
//! under shared / static-equal / model-based and reports the dynamic
//! scheme's improvements at every point. An axis is planned up front: all
//! of its point × probe × scheme simulations run in one scheduler map, so
//! the axis keeps every core busy instead of three jobs at a time.

use icp_cmp_sim::CacheConfig;
use icp_core::ExecutionOutcome;
use icp_numeric::stats;
use icp_workloads::{suite, BenchmarkSpec};

use crate::miss_model::BenchPredictor;
use crate::runner::{ExperimentConfig, Scheme};
use crate::sched::{self, Cell, SchedStats};
use crate::table::{pct, Table};

/// Default fast-mode fallback margin, in improvement percentage points: a
/// predicted improvement closer to zero than this is re-resolved by exact
/// simulation, so reported signs are always simulation-confirmed. Chosen
/// above the predictor's observed mean error (see `EXPERIMENTS.md`).
pub const DEFAULT_FAST_MARGIN: f64 = 3.0;

/// How a sweep evaluates each axis point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SweepMode {
    /// Simulate every scheme at every point — the reference mode; output
    /// tables are bit-identical to simulating without any fast path.
    Exact,
    /// One profiling simulation per (probe, geometry, seed) feeds the
    /// analytical predictor ([`crate::miss_model`]); full simulation runs
    /// only where a predicted improvement lies within `margin` percentage
    /// points of zero (or the predictor cannot be built).
    Fast {
        /// Fallback-to-simulation margin in percentage points.
        margin: f64,
    },
}

impl SweepMode {
    /// Fast mode with the default margin.
    pub fn fast() -> SweepMode {
        SweepMode::Fast { margin: DEFAULT_FAST_MARGIN }
    }
}

/// Probe benchmarks for sweeps: one strongly contended, one moderately,
/// one small-working-set (they should react differently).
fn probes() -> Vec<icp_workloads::BenchmarkSpec> {
    vec![suite::swim(), suite::cg(), suite::ft()]
}

/// One point of a sweep axis.
struct AxisPoint {
    /// The point's label in the table's first column.
    label: String,
    /// The configuration the dynamic scheme runs under.
    config: ExperimentConfig,
    /// The configuration the static baselines run under: `config` itself,
    /// except on the interval axis, where they are hoisted to the base
    /// interval (static-scheme walls are interval-invariant, see
    /// `static_scheme_walls_are_interval_invariant`).
    baseline: ExperimentConfig,
}

impl AxisPoint {
    /// A point whose baselines run under its own configuration.
    fn new(label: String, config: ExperimentConfig) -> Self {
        AxisPoint { label, baseline: config.clone(), config }
    }
}

/// A sweep axis: its table shape and its points.
struct Axis {
    title: &'static str,
    column: &'static str,
    points: Vec<AxisPoint>,
}

impl Axis {
    /// Measures every point and renders the table, returning the
    /// statistics of every scheduler map the plan ran.
    fn run(&self, mode: SweepMode) -> (Table, Vec<SchedStats>) {
        let (means, maps) = measure(&self.points, &probes(), mode);
        let mut t = Table::new(self.title, &[self.column, "vs shared", "vs equal"]);
        for (p, (s, e)) in self.points.iter().zip(means) {
            t.row(vec![p.label.clone(), pct(s), pct(e)]);
        }
        (t, maps)
    }
}

/// The configuration an axis varies: `cfg` with a trace and a result cache
/// attached (unless it brings its own), shared by every point.
fn axis_base(cfg: &ExperimentConfig) -> ExperimentConfig {
    cfg.with_default_trace_cache().with_default_result_cache()
}

/// Mean improvements of the dynamic scheme over (shared, equal) across
/// `probes` at every point, plus the statistics of each scheduler map.
///
/// The plan covers the whole axis at once. Exact mode runs every point ×
/// probe × scheme cell in one [`sched::run_cells`] map. Fast mode runs
/// every profiling simulation in one map, then the exact cells of every
/// (point, probe) pair the predictor could not settle in a second one.
fn measure(
    points: &[AxisPoint],
    probes: &[BenchmarkSpec],
    mode: SweepMode,
) -> (Vec<(f64, f64)>, Vec<SchedStats>) {
    let pairs: Vec<(&AxisPoint, &BenchmarkSpec)> =
        points.iter().flat_map(|p| probes.iter().map(move |b| (p, b))).collect();
    let (per_pair, maps) = match mode {
        SweepMode::Exact => {
            let (outs, stats) = sched::run_cells(exact_cells(&pairs));
            (improvements(&outs), vec![stats])
        }
        SweepMode::Fast { margin } => predict_or_simulate(&pairs, margin),
    };
    let means = per_pair
        .chunks(probes.len())
        .map(|point| {
            let (vs_shared, vs_equal): (Vec<f64>, Vec<f64>) = point.iter().copied().unzip();
            (stats::mean(&vs_shared), stats::mean(&vs_equal))
        })
        .collect();
    (means, maps)
}

/// The three exact cells of every pair, pair-major: shared and
/// static-equal under the point's baseline configuration, then the dynamic
/// scheme under its own.
fn exact_cells<'a>(pairs: &[(&'a AxisPoint, &'a BenchmarkSpec)]) -> Vec<Cell<'a>> {
    pairs
        .iter()
        .flat_map(|&(p, bench)| {
            [
                Cell::new(&p.baseline, bench, Scheme::Shared),
                Cell::new(&p.baseline, bench, Scheme::StaticEqual),
                Cell::new(&p.config, bench, Scheme::ModelBased),
            ]
        })
        .collect()
}

/// Per-pair (vs shared, vs equal) improvements from [`exact_cells`]
/// outcomes.
fn improvements(outs: &[ExecutionOutcome]) -> Vec<(f64, f64)> {
    outs.chunks(3)
        .map(|o| (o[2].improvement_percent_over(&o[0]), o[2].improvement_percent_over(&o[1])))
        .collect()
}

/// The static scheme the fast path profiles at: the flat equal split on
/// monolithic configs, the *cluster-wise* equal split on sliced ones
/// (one cluster per slice). Anchoring the predictor at the allocation the
/// hierarchical schemes actually start from keeps sliced axis points
/// inside the prediction-error gate — with uneven way counts the flat and
/// cluster-wise splits differ, and the ratio anchoring would otherwise
/// carry that offset into every sliced prediction.
fn profile_anchor(point: &ExperimentConfig) -> Scheme {
    let slices = point.system.llc.slices as usize;
    if slices > 1 {
        Scheme::StaticCustom(crate::miss_model::clustered_equal_split(
            point.system.l2.ways,
            point.system.cores,
            slices,
        ))
    } else {
        Scheme::StaticEqual
    }
}

/// Fast-path improvements for every pair: predict from one profiled
/// static-equal run under the pair's baseline configuration (re-anchored
/// per cluster on sliced configs, see [`profile_anchor`]), falling back
/// to exact simulation for near-zero predictions (signs must be
/// simulation-confirmed) or an unusable profile.
fn predict_or_simulate(
    pairs: &[(&AxisPoint, &BenchmarkSpec)],
    margin: f64,
) -> (Vec<(f64, f64)>, Vec<SchedStats>) {
    let profile_cells = pairs
        .iter()
        .map(|&(p, bench)| Cell {
            profiled: true,
            ..Cell::new(&p.baseline, bench, profile_anchor(&p.baseline))
        })
        .collect();
    let (profiles, profiling) = sched::run_cells(profile_cells);
    let predicted: Vec<Option<(f64, f64)>> = pairs
        .iter()
        .zip(&profiles)
        .map(|(&(p, _), profile)| {
            BenchPredictor::from_outcome(profile, &p.config.system)
                .map(|pred| pred.improvements())
                .filter(|(s, e)| !(s.abs() < margin || e.abs() < margin))
        })
        .collect();
    let fallback: Vec<(&AxisPoint, &BenchmarkSpec)> = pairs
        .iter()
        .zip(&predicted)
        .filter(|(_, p)| p.is_none())
        .map(|(&pair, _)| pair)
        .collect();
    let (outs, fallbacks) = sched::run_cells(exact_cells(&fallback));
    let mut exact = improvements(&outs).into_iter();
    let per_pair = predicted
        .into_iter()
        .map(|p| p.unwrap_or_else(|| exact.next().expect("one exact result per fallback pair")))
        .collect();
    (per_pair, vec![profiling, fallbacks])
}

/// Sweeps the L2 capacity (way count held at 64; sets scale).
///
/// Expected shape: with a tiny cache everything thrashes and partitioning
/// cannot help much; with a huge cache nothing contends; the sweet spot in
/// between is where the paper's effect lives.
pub fn sweep_cache_size(cfg: &ExperimentConfig) -> Table {
    sweep_cache_size_with(cfg, SweepMode::Exact)
}

/// [`sweep_cache_size`] with an explicit evaluation mode.
pub fn sweep_cache_size_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    cache_size_axis(cfg).run(mode).0
}

fn cache_size_axis(cfg: &ExperimentConfig) -> Axis {
    let base = axis_base(cfg);
    let points = [64u64, 128, 256, 512, 1024]
        .into_iter()
        .map(|kb| {
            let mut c = base.clone();
            c.system.l2 = CacheConfig::new(kb * 1024, 64, 64);
            AxisPoint::new(format!("{kb} KB"), c)
        })
        .collect();
    Axis {
        title: "Sweep: L2 capacity (dynamic scheme improvements, probe set)",
        column: "l2 size",
        points,
    }
}

/// Sweeps the core/thread count at fixed L2 capacity (the Figure 22 axis,
/// extended).
pub fn sweep_thread_count(cfg: &ExperimentConfig) -> Table {
    sweep_thread_count_with(cfg, SweepMode::Exact)
}

/// [`sweep_thread_count`] with an explicit evaluation mode.
pub fn sweep_thread_count_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    thread_count_axis(cfg, &[2, 4, 8, 16]).run(mode).0
}

fn thread_count_axis(cfg: &ExperimentConfig, cores: &[usize]) -> Axis {
    let base = axis_base(cfg);
    Axis {
        title: "Sweep: cores/threads sharing one L2 (dynamic scheme improvements)",
        column: "cores",
        points: cores
            .iter()
            .map(|&n| AxisPoint::new(n.to_string(), base.clone().with_cores(n)))
            .collect(),
    }
}

/// Sweeps the execution interval length (the paper reports "little
/// variation", §VII).
pub fn sweep_interval(cfg: &ExperimentConfig) -> Table {
    sweep_interval_with(cfg, SweepMode::Exact)
}

/// [`sweep_interval`] with an explicit evaluation mode.
///
/// The static baselines are *hoisted*: interval boundaries only snapshot
/// counters, so shared / static-equal walls are bit-identical at every
/// interval length (pinned by `static_scheme_walls_are_interval_invariant`)
/// and run once at the base interval. Every point requests them under the
/// same result-cache key in one scheduler map; the single-flight cache
/// simulates each once and serves the other points as hits.
pub fn sweep_interval_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    interval_axis(cfg).run(mode).0
}

fn interval_axis(cfg: &ExperimentConfig) -> Axis {
    let base = axis_base(cfg);
    let points = [8u64, 4, 2, 1]
        .into_iter()
        .map(|divisor| {
            let mut c = base.clone();
            c.system.interval_instructions =
                (base.system.interval_instructions / divisor).max(1_000);
            AxisPoint {
                label: c.system.interval_instructions.to_string(),
                config: c,
                baseline: base.clone(),
            }
        })
        .collect();
    Axis {
        title: "Sweep: execution interval length (dynamic scheme improvements)",
        column: "interval (instructions)",
        points,
    }
}

/// Sweeps the DRAM latency: the slower memory is, the more a miss costs
/// and the bigger the partitioning stakes.
pub fn sweep_memory_latency(cfg: &ExperimentConfig) -> Table {
    sweep_memory_latency_with(cfg, SweepMode::Exact)
}

/// [`sweep_memory_latency`] with an explicit evaluation mode.
pub fn sweep_memory_latency_with(cfg: &ExperimentConfig, mode: SweepMode) -> Table {
    memory_latency_axis(cfg).run(mode).0
}

fn memory_latency_axis(cfg: &ExperimentConfig) -> Axis {
    let base = axis_base(cfg);
    let points = [75u64, 150, 300]
        .into_iter()
        .map(|mem| {
            let mut c = base.clone();
            c.system.latency.memory = mem;
            AxisPoint::new(mem.to_string(), c)
        })
        .collect();
    Axis {
        title: "Sweep: DRAM latency (dynamic scheme improvements)",
        column: "latency (cycles)",
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_sweep_has_expected_rows() {
        let t = sweep_cache_size(&ExperimentConfig::test());
        assert_eq!(t.len(), 5);
        // Every cell parses as a percentage.
        for line in t.to_csv().lines().skip(1) {
            for cell in line.split(',').skip(1) {
                let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                assert!(v.abs() < 100.0, "{line}");
            }
        }
    }

    #[test]
    fn interval_sweep_is_broadly_flat() {
        // The paper: "little variation across the results when the
        // execution interval was either increased or decreased". Allow a
        // generous band at test scale.
        let t = sweep_interval(&ExperimentConfig::test());
        let vals: Vec<f64> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().trim_end_matches('%').parse().unwrap())
            .collect();
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min < 15.0, "interval sensitivity too large: {vals:?}");
        assert!(min > 0.0, "dynamic must beat equal at every interval: {vals:?}");
    }

    #[test]
    fn static_scheme_walls_are_interval_invariant() {
        // The physics behind baseline hoisting: interval boundaries only
        // snapshot counters, and the static schemes never change partition
        // state at a boundary, so their wall cycles cannot depend on the
        // interval length.
        let base = ExperimentConfig::test();
        let bench = suite::swim();
        for scheme in [Scheme::Shared, Scheme::StaticEqual] {
            let mut walls = Vec::new();
            for divisor in [8u64, 2, 1] {
                let mut c = base.clone();
                c.system.interval_instructions =
                    (base.system.interval_instructions / divisor).max(1_000);
                walls.push(c.run(&bench, &scheme).wall_cycles);
            }
            assert!(
                walls.windows(2).all(|w| w[0] == w[1]),
                "{scheme:?} wall cycles vary with interval: {walls:?}"
            );
        }
    }

    #[test]
    fn thread_sweep_runs_at_2_and_8() {
        let mut cfg = ExperimentConfig::test();
        // Keep the test fast: only verify the mechanics at two points.
        cfg.system.interval_instructions *= 2;
        let (t, maps) = thread_count_axis(&cfg, &[2, 8]).run(SweepMode::Exact);
        assert_eq!(maps.len(), 1, "one scheduler map for the whole axis");
        assert_eq!(maps[0].jobs, 2 * 3 * 3, "points x probes x schemes");
        for v in signed_cells(&t) {
            assert!(v.is_finite(), "{}", t.render());
        }
    }

    #[test]
    fn each_exact_axis_runs_as_one_scheduler_map() {
        let cfg = ExperimentConfig::test();
        for axis in [
            cache_size_axis(&cfg),
            thread_count_axis(&cfg, &[2, 4, 8, 16]),
            interval_axis(&cfg),
            memory_latency_axis(&cfg),
        ] {
            let (_, maps) = axis.run(SweepMode::Exact);
            let jobs: Vec<usize> = maps.iter().map(|m| m.jobs).collect();
            assert_eq!(jobs, vec![axis.points.len() * 3 * 3], "{}", axis.title);
        }
    }

    #[test]
    fn interval_axis_hoists_baselines_through_the_result_cache() {
        // Satellite 1 pin: the static baselines run once per probe at the
        // base interval and every other axis point reuses them.
        let cache = crate::result_cache::ResultCache::shared();
        let cfg =
            ExperimentConfig::test().with_result_cache(std::sync::Arc::clone(&cache));
        let _ = sweep_interval_with(&cfg, SweepMode::Exact);
        assert_eq!(
            cache.simulations(),
            18,
            "3 probes x (2 hoisted baselines + 4 dynamic points)"
        );
        assert_eq!(cache.hits(), 18, "3 probes x 3 repeated points x 2 baselines");
    }

    fn signed_cells(t: &Table) -> Vec<f64> {
        t.to_csv()
            .lines()
            .skip(1)
            .flat_map(|l| {
                l.split(',')
                    .skip(1)
                    .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// One (point, probe) pair measured in fast mode through the axis
    /// planner.
    fn measure_fast(
        point: &ExperimentConfig,
        baseline: &ExperimentConfig,
        bench: &BenchmarkSpec,
        margin: f64,
    ) -> (f64, f64) {
        let point = AxisPoint {
            label: String::new(),
            config: point.clone(),
            baseline: baseline.clone(),
        };
        let (means, _) =
            measure(&[point], std::slice::from_ref(bench), SweepMode::Fast { margin });
        means[0]
    }

    #[test]
    fn fast_mode_anchors_sliced_configs_at_the_cluster_split() {
        // Monolithic configs keep the bit-compatible StaticEqual anchor;
        // sliced configs profile at the cluster-wise equal split, and the
        // profile still yields a usable predictor (no silent fallback to
        // exact simulation on every sliced axis point).
        let mono = ExperimentConfig::test();
        assert_eq!(profile_anchor(&mono), Scheme::StaticEqual);
        let sliced = ExperimentConfig::test().with_topology(6, 2);
        let anchor = profile_anchor(&sliced);
        assert_eq!(
            anchor,
            Scheme::StaticCustom(vec![11, 11, 10, 11, 11, 10]),
            "cluster-wise split of 64 ways over 6 threads in 2 clusters"
        );
        let profile = sliced.run_profiled(&suite::swim(), &anchor);
        assert!(BenchPredictor::from_outcome(&profile, &sliced.system).is_some());
        let (s, e) = measure_fast(&sliced, &sliced, &suite::swim(), 0.0);
        assert!(s.is_finite() && e.is_finite());
    }

    #[test]
    fn fast_mode_agrees_with_exact_on_every_improvement_sign() {
        let cfg = ExperimentConfig::test();
        let exact = signed_cells(&sweep_interval(&cfg));
        let fast = signed_cells(&sweep_interval_with(&cfg, SweepMode::fast()));
        assert_eq!(exact.len(), fast.len());
        for (i, (e, f)) in exact.iter().zip(&fast).enumerate() {
            assert!(
                e.signum() == f.signum() || e.abs() < 1e-9,
                "cell {i}: exact {e:.2} vs fast {f:.2} disagree in sign"
            );
        }
    }

    #[test]
    fn exact_mode_tables_are_identical_to_the_unhoisted_reference() {
        // Bit-identity acceptance: hoisted baselines + result cache must
        // not change a single byte of the interval sweep table relative to
        // simulating every scheme at every point directly.
        let cfg = ExperimentConfig::test();
        let hoisted = sweep_interval(&cfg).render();
        let mut reference = Table::new(
            "Sweep: execution interval length (dynamic scheme improvements)",
            &["interval (instructions)", "vs shared", "vs equal"],
        );
        for divisor in [8u64, 4, 2, 1] {
            let mut c = cfg.clone();
            c.system.interval_instructions =
                (cfg.system.interval_instructions / divisor).max(1_000);
            let outs = c.run_schemes(
                &suite::swim(),
                &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased],
            );
            let mut vs_shared = vec![outs[2].improvement_percent_over(&outs[0])];
            let mut vs_equal = vec![outs[2].improvement_percent_over(&outs[1])];
            for b in [suite::cg(), suite::ft()] {
                let outs = c.run_schemes(
                    &b,
                    &[Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased],
                );
                vs_shared.push(outs[2].improvement_percent_over(&outs[0]));
                vs_equal.push(outs[2].improvement_percent_over(&outs[1]));
            }
            reference.row(vec![
                c.system.interval_instructions.to_string(),
                pct(stats::mean(&vs_shared)),
                pct(stats::mean(&vs_equal)),
            ]);
        }
        assert_eq!(hoisted, reference.render());
    }
}
