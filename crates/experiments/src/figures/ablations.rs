//! Ablations of the design choices `DESIGN.md` calls out: the execution
//! interval length, the CPI-curve family, Figure 13's hill-climb
//! termination rule, UMON sampling, §V's gradual replacement-based
//! enforcement, and the substrate features (replacement policy, inclusion,
//! phase detection, coherence, prefetching, banking, a victim cache).
//!
//! Every table but one compares the dynamic scheme under each variant with
//! the shared and static-equal baselines under the same variant, averaged
//! over a three-benchmark probe set. Those cells, plus the run the
//! enforcement-convergence table reads, are planned up front and run as
//! one scheduler map through the trace and result caches. The UMON-stride
//! table runs its four UCP simulations by hand (a pre-enabled monitor's
//! sampling stride is not part of a result-cache key), as Figure 15 does.

use icp_baselines::UcpThroughputPolicy;
use icp_cmp_sim::{EnforcementKind, ReplacementKind, Simulator};
use icp_core::{ExecutionOutcome, IntraAppRuntime, ModelKind};
use icp_numeric::stats;
use icp_workloads::{suite, BenchmarkSpec};

use crate::runner::{ExperimentConfig, Scheme};
use crate::sched::{self, Cell, SchedStats};
use crate::table::{pct, Table};

/// Probe benchmarks: the two most contended suite members and the one
/// with the most inter-thread sharing.
fn probes() -> Vec<BenchmarkSpec> {
    vec![suite::swim(), suite::mgrid(), suite::cg()]
}

/// One row of a probe-set table: the dynamic scheme `scheme` against the
/// baselines, everything under `config`.
struct Variant {
    label: String,
    config: ExperimentConfig,
    scheme: Scheme,
}

/// A probe-set ablation table.
struct Ablation {
    /// File stem under `results/`.
    id: &'static str,
    title: &'static str,
    /// Header of the variant column.
    column: &'static str,
    variants: Vec<Variant>,
}

/// A model-based row under `base` with one change applied.
fn config_row(
    label: impl Into<String>,
    base: &ExperimentConfig,
    change: impl FnOnce(&mut ExperimentConfig),
) -> Variant {
    let mut config = base.clone();
    change(&mut config);
    Variant {
        label: label.into(),
        config,
        scheme: Scheme::ModelBased,
    }
}

/// A row running `scheme` under the base configuration.
fn scheme_row(label: &str, base: &ExperimentConfig, scheme: Scheme) -> Variant {
    Variant {
        label: label.to_string(),
        config: base.clone(),
        scheme,
    }
}

/// Every probe-set table.
fn plan(base: &ExperimentConfig) -> Vec<Ablation> {
    let interval = base.system.interval_instructions;
    vec![
        Ablation {
            id: "ablation_interval_length",
            title: "Ablation: execution interval length (model-based vs baselines)",
            column: "interval",
            variants: [4u64, 2, 1]
                .into_iter()
                .map(|factor| {
                    config_row((interval / factor).to_string(), base, |c| {
                        c.system.interval_instructions /= factor
                    })
                })
                .collect(),
        },
        Ablation {
            id: "ablation_model_kind",
            title: "Ablation: CPI-curve family (paper uses cubic splines)",
            column: "model",
            variants: [
                ("spline", ModelKind::Spline),
                ("pchip", ModelKind::Pchip),
                ("linear", ModelKind::Linear),
            ]
            .into_iter()
            .map(|(name, kind)| scheme_row(name, base, Scheme::ModelBasedWith(kind)))
            .collect(),
        },
        Ablation {
            id: "ablation_strict_figure13",
            title: "Ablation: Figure 13 termination rule",
            column: "rule",
            variants: vec![
                scheme_row("accept-if-improves (default)", base, Scheme::ModelBased),
                scheme_row("strict revert-on-flip", base, Scheme::ModelBasedStrict),
            ],
        },
        Ablation {
            id: "ablation_enforcement",
            title: "Ablation: partition enforcement mechanism (§V)",
            column: "enforcement",
            variants: [
                ("replacement (paper)", EnforcementKind::Replacement),
                ("instant reconfigure", EnforcementKind::Reconfigure),
            ]
            .into_iter()
            .map(|(name, kind)| config_row(name, base, |c| c.enforcement = kind))
            .collect(),
        },
        Ablation {
            id: "ablation_replacement",
            title: "Ablation: exact LRU vs tree pseudo-LRU under the dynamic scheme",
            column: "replacement",
            variants: [
                ("true-lru", ReplacementKind::TrueLru),
                ("tree-plru", ReplacementKind::TreePlru),
            ]
            .into_iter()
            .map(|(name, kind)| config_row(name, base, |c| c.replacement = kind))
            .collect(),
        },
        Ablation {
            id: "ablation_inclusive",
            title: "Ablation: non-inclusive vs inclusive hierarchy (L1 back-invalidation)",
            column: "hierarchy",
            variants: [("non-inclusive", false), ("inclusive", true)]
                .into_iter()
                .map(|(name, on)| config_row(name, base, |c| c.system.inclusive = on))
                .collect(),
        },
        Ablation {
            id: "ablation_phase_detection",
            title: "Ablation: phase-change detection (model reset on 50% prediction error)",
            column: "variant",
            variants: vec![
                scheme_row("ewma-only (default)", base, Scheme::ModelBased),
                scheme_row("with phase reset", base, Scheme::ModelBasedPhaseDetect),
            ],
        },
        Ablation {
            id: "ablation_coherence",
            title: "Ablation: write-invalidate L1 coherence on/off",
            column: "coherence",
            variants: [("off (default)", false), ("on", true)]
                .into_iter()
                .map(|(name, on)| config_row(name, base, |c| c.system.coherence = on))
                .collect(),
        },
        Ablation {
            id: "ablation_prefetch",
            title: "Ablation: sequential L2 prefetching (degree sweep)",
            column: "degree",
            variants: [0u32, 1, 2, 4]
                .into_iter()
                .map(|d| config_row(d.to_string(), base, |c| c.system.prefetch_degree = d))
                .collect(),
        },
        Ablation {
            id: "ablation_l2_banks",
            title: "Ablation: L2 bank count (bank conflicts serialise accesses)",
            column: "banks",
            variants: [0u32, 4, 8, 16]
                .into_iter()
                .map(|b| {
                    let label = if b == 0 {
                        "unbanked".to_string()
                    } else {
                        b.to_string()
                    };
                    config_row(label, base, |c| c.system.l2_banks = b)
                })
                .collect(),
        },
        Ablation {
            id: "ablation_victim_cache",
            title: "Ablation: victim cache size (shared cache + victim vs dynamic partitioning)",
            column: "victim lines",
            variants: [0u32, 64, 256]
                .into_iter()
                .map(|n| config_row(n.to_string(), base, |c| c.system.victim_cache_lines = n))
                .collect(),
        },
    ]
}

/// Every ablation table, each with the file stem it is saved under in
/// `results/`.
pub fn ablation_tables(cfg: &ExperimentConfig) -> Vec<(&'static str, Table)> {
    tables(cfg, &probes()).0
}

/// [`ablation_tables`] over `probes`, plus the statistics of the one
/// scheduler map every cached run goes through.
fn tables(
    cfg: &ExperimentConfig,
    probes: &[BenchmarkSpec],
) -> (Vec<(&'static str, Table)>, SchedStats) {
    let base = cfg.with_default_trace_cache().with_default_result_cache();
    let ablations = plan(&base);
    let cg = suite::cg();
    // Every variant × probe × {shared, static-equal, dynamic} cell, then
    // the run the convergence table reads.
    let mut cells: Vec<Cell<'_>> = ablations
        .iter()
        .flat_map(|a| &a.variants)
        .flat_map(|v| {
            probes.iter().flat_map(move |bench| {
                [
                    Cell::new(&v.config, bench, Scheme::Shared),
                    Cell::new(&v.config, bench, Scheme::StaticEqual),
                    Cell::new(&v.config, bench, v.scheme.clone()),
                ]
            })
        })
        .collect();
    cells.push(Cell::new(&base, &cg, Scheme::ModelBased));
    let (outs, stats) = sched::run_cells(cells);
    let (convergence, outs) = outs.split_last().expect("the convergence run");

    let mut per_variant = outs.chunks(probes.len() * 3);
    let mut out = Vec::new();
    for a in &ablations {
        let mut t = Table::new(a.title, &[a.column, "vs shared", "vs equal"]);
        for v in &a.variants {
            let outs = per_variant
                .next()
                .expect("one chunk of outcomes per variant");
            let (vs_shared, vs_equal): (Vec<f64>, Vec<f64>) = outs
                .chunks(3)
                .map(|o| {
                    (
                        o[2].improvement_percent_over(&o[0]),
                        o[2].improvement_percent_over(&o[1]),
                    )
                })
                .unzip();
            t.row(vec![
                v.label.clone(),
                pct(stats::mean(&vs_shared)),
                pct(stats::mean(&vs_equal)),
            ]);
        }
        out.push((a.id, t));
    }
    out.push((
        "ablation_enforcement_convergence",
        convergence_table(convergence),
    ));
    out.push(("ablation_umon_sampling", umon_stride_table(&base)));
    (out, stats)
}

/// How gradually the replacement-based mechanism converges: the first
/// interval whose partition is within ±2 ways of the final one, per thread.
fn convergence_table(out: &ExecutionOutcome) -> Table {
    let last = &out.records.last().expect("at least one interval").ways;
    let first_match = out
        .records
        .iter()
        .position(|r| r.ways.iter().zip(last).all(|(&a, &b)| a.abs_diff(b) <= 2))
        .unwrap_or(out.records.len());
    let mut t = Table::new(
        "Gradual convergence of the replacement-based mechanism",
        &["metric", "value"],
    );
    t.row(vec!["intervals".into(), out.records.len().to_string()]);
    t.row(vec![
        "first interval within ±2 ways of final partition".into(),
        first_match.to_string(),
    ]);
    t
}

/// The UCP baseline's quality as its utility monitor samples sparser:
/// SWIM under UCP with the monitor pre-enabled at each stride (the
/// runtime would otherwise attach one at its default stride).
fn umon_stride_table(cfg: &ExperimentConfig) -> Table {
    let spec = cfg.normalized(&suite::swim());
    let strides = vec![1u64, 4, 16, 64];
    let walls = sched::parallel_map(strides.clone(), |&stride| {
        let mut sim = Simulator::new(cfg.system, cfg.streams(&spec));
        sim.enable_umon(stride);
        IntraAppRuntime::new(UcpThroughputPolicy::new(), &cfg.system)
            .execute(&mut sim)
            .wall_cycles
    });
    let mut t = Table::new(
        "Ablation: UMON sampling stride (UCP baseline quality)",
        &["stride", "wall cycles (swim)"],
    );
    for (stride, wall) in strides.iter().zip(walls) {
        t.row(vec![stride.to_string(), wall.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::result_cache::ResultCache;

    #[test]
    fn cached_runs_form_one_map_and_a_rerun_simulates_nothing() {
        let cache = ResultCache::shared();
        let cfg = ExperimentConfig::test()
            .with_result_cache(Arc::clone(&cache))
            .with_default_trace_cache();
        let probes = [suite::cg()];
        let (first, stats) = tables(&cfg, &probes);
        let ids: Vec<&str> = first.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            ids.len(),
            13,
            "12 ablations plus the convergence table: {ids:?}"
        );
        assert!(ids.iter().all(|id| id.starts_with("ablation_")));
        // 29 variants × 3 schemes × 1 probe, plus the convergence run.
        assert_eq!(stats.jobs, 29 * 3 + 1);
        assert_eq!(
            cache.simulations() + cache.hits(),
            stats.jobs as u64,
            "every result-cache request came from the one map"
        );
        let simulated = cache.simulations();
        let (again, _) = tables(&cfg, &probes);
        assert_eq!(
            cache.simulations(),
            simulated,
            "a warm rerun simulates nothing"
        );
        let render = |ts: &[(&str, Table)]| ts.iter().map(|(_, t)| t.render()).collect::<Vec<_>>();
        assert_eq!(render(&again), render(&first));
    }
}
