//! The reproduction scorecard: automated paper-vs-measured band checks.
//!
//! Each entry encodes a quantitative claim from the paper's evaluation and
//! the tolerance band this reproduction is expected to land in (shape
//! fidelity, not absolute-number matching — see `EXPERIMENTS.md`). The
//! scorecard is printed by `repro scorecard` and asserted (at figure scale)
//! by the `figure_scale_bands` integration test.

use icp_numeric::stats;
use icp_workloads::suite;

use crate::figures::SuiteData;
use crate::runner::{ExperimentConfig, Scheme};
use crate::table::{f2, Table};

/// One checked claim.
#[derive(Clone, Debug)]
pub struct Check {
    /// Which figure/claim this verifies.
    pub claim: &'static str,
    /// The paper's reported value (as text, for the report).
    pub paper: &'static str,
    /// Measured value.
    pub measured: f64,
    /// Acceptance band for the measured value.
    pub band: (f64, f64),
}

impl Check {
    /// Whether the measured value lies in the band.
    pub fn pass(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

/// Runs the whole suite and evaluates every scorecard claim, plus the
/// fast-path prediction-error check (which needs extra simulations beyond
/// the suite collection, so it lives here and not in [`scorecard_from`]).
pub fn run_scorecard(cfg: &ExperimentConfig) -> Vec<Check> {
    let data = SuiteData::collect(cfg);
    let mut checks = scorecard_from(&data);
    let errors = crate::figures::prediction::prediction_errors(cfg);
    checks.push(Check {
        claim: "Fast path: mean miss-prediction error (%)",
        paper: "n/a (reproduction extension)",
        measured: errors.mean_pct(),
        // Scale-dependent: ~21 % at test scale, ~43 % at figure scale
        // (ft's sharing-dominated tiny miss counts inflate relative error
        // as runs lengthen — see EXPERIMENTS.md). The band is a regression
        // guard on the predictor, not a sweep-accuracy bound: sweep signs
        // are protected by the fast-mode margin fallback.
        band: (0.0, 60.0),
    });
    checks
}

/// Evaluates the scorecard claims against an existing suite collection.
pub fn scorecard_from(data: &SuiteData) -> Vec<Check> {
    let imps = |base: &[icp_core::ExecutionOutcome]| -> Vec<f64> {
        data.dynamic
            .iter()
            .zip(base)
            .map(|(d, b)| d.improvement_percent_over(b))
            .collect()
    };
    let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);

    let vs_shared = imps(&data.shared);
    let vs_equal = imps(&data.equal);
    let vs_ucp = imps(&data.ucp);

    // Correlation (Figure 5): per-thread, averaged per benchmark.
    let mut corrs = Vec::new();
    for out in &data.shared {
        let threads = out.thread_totals.len();
        let mut per_thread = Vec::new();
        for t in 0..threads {
            let mut cpis = Vec::new();
            let mut misses = Vec::new();
            for r in &out.records {
                if r.instructions[t] > 0 {
                    cpis.push(r.cpi[t]);
                    misses.push(r.l2_misses[t] as f64 / r.instructions[t] as f64);
                }
            }
            if let Some(c) = stats::pearson(&cpis, &misses) {
                per_thread.push(c);
            }
        }
        corrs.push(stats::mean(&per_thread));
    }

    // Interaction fraction (Figure 8).
    let inters: Vec<f64> = data
        .shared
        .iter()
        .map(|o| o.interactions.inter_thread_fraction() * 100.0)
        .collect();

    // Small-working-set benchmarks' gains vs shared (Figure 20's aside).
    let names = data.names();
    let small_imps: Vec<f64> = suite::small_working_set_names()
        .iter()
        .map(|n| {
            let i = names.iter().position(|x| x == n).expect("suite member");
            vs_shared[i]
        })
        .collect();

    vec![
        Check {
            claim: "Fig 20: max improvement vs shared (%)",
            paper: "up to 15",
            measured: max(&vs_shared),
            band: (5.0, 20.0),
        },
        Check {
            claim: "Fig 20: avg improvement vs shared (%)",
            paper: "~9",
            measured: stats::mean(&vs_shared),
            band: (2.0, 13.0),
        },
        Check {
            claim: "Fig 20: min improvement vs shared (%)",
            paper: ">= 0 (three benchmarks near zero)",
            measured: min(&vs_shared),
            band: (-3.0, 5.0),
        },
        Check {
            claim: "Fig 20: small-WS benchmarks stay small (max abs %)",
            paper: "only a small benefit",
            measured: small_imps.iter().cloned().fold(0.0, |a: f64, b| a.max(b.abs())),
            band: (0.0, 6.0),
        },
        Check {
            claim: "Fig 19: max improvement vs private/equal (%)",
            paper: "up to 23",
            measured: max(&vs_equal),
            band: (12.0, 30.0),
        },
        Check {
            claim: "Fig 19: avg improvement vs private/equal (%)",
            paper: "~11",
            measured: stats::mean(&vs_equal),
            band: (5.0, 18.0),
        },
        Check {
            claim: "Fig 19 > Fig 20: equal gains exceed shared gains",
            paper: "implied by Figs 19/20",
            measured: stats::mean(&vs_equal) - stats::mean(&vs_shared),
            band: (0.0, f64::INFINITY),
        },
        Check {
            claim: "Fig 21: max improvement vs throughput scheme (%)",
            paper: "up to 20",
            measured: max(&vs_ucp),
            band: (10.0, 28.0),
        },
        Check {
            claim: "Fig 21: min improvement vs throughput scheme (%)",
            paper: "outperforms for all applications",
            measured: min(&vs_ucp),
            band: (-1.0, f64::INFINITY),
        },
        Check {
            claim: "Fig 5: avg CPI-miss correlation",
            paper: "0.97",
            measured: stats::mean(&corrs),
            band: (0.9, 1.0),
        },
        Check {
            claim: "Fig 8: avg inter-thread interaction (%)",
            paper: "11.5",
            measured: stats::mean(&inters),
            band: (6.0, 25.0),
        },
    ]
}

/// Weighted speedup of `scheme` over `base`: per-thread CPI speedups
/// (base CPI / scheme CPI), averaged — the standard multiprogram scaling
/// metric, robust to one thread dominating wall time at high core counts.
fn weighted_speedup(
    scheme: &icp_core::ExecutionOutcome,
    base: &icp_core::ExecutionOutcome,
) -> f64 {
    let per_thread: Vec<f64> = scheme
        .thread_totals
        .iter()
        .zip(&base.thread_totals)
        .map(|(s, b)| {
            let cpi_s = s.active_cycles as f64 / s.instructions.max(1) as f64;
            let cpi_b = b.active_cycles as f64 / b.instructions.max(1) as f64;
            cpi_b / cpi_s.max(f64::MIN_POSITIVE)
        })
        .collect();
    stats::mean(&per_thread)
}

/// Measured wall-clock ratio of the flat hill-climb allocator over the
/// hierarchical lookahead allocator, both fed the same full-run
/// utility-monitor curves from a profiled 16-thread run.
///
/// This is an apples-to-apples allocator benchmark: each rep starts cold
/// from the equal split and computes a complete 16-thread partition —
/// the hill-climb by [`icp_baselines::descent::greedy_single_way_descent`]
/// over the `O(ways^threads)` flat space (each scan evaluates every
/// single-way move), the hierarchical path by merging per-cluster curves,
/// running [`icp_core::lookahead_allocate`] across clusters and splitting
/// within them — exactly what [`icp_core::HierarchicalPolicy`] does each
/// interval. Both sides are pure integer/float loops over the same curves,
/// so the ratio is robust to build mode.
fn allocator_speedup(profile: &icp_cmp_sim::UmonProfile, clusters: usize) -> f64 {
    let threads = profile.threads();
    let ways = profile.ways;
    // Cumulative per-thread utility curves: curves[t][w] = hits at w ways.
    let curves: Vec<Vec<u64>> = profile
        .way_hits
        .iter()
        .map(|hist| {
            let mut acc = 0u64;
            std::iter::once(0)
                .chain(hist.iter().map(|&h| {
                    acc += h;
                    acc
                }))
                .collect()
        })
        .collect();
    let equal = icp_cmp_sim::l2::equal_split(ways, threads);
    const REPS: u32 = 32;

    let hill_start = std::time::Instant::now();
    for _ in 0..REPS {
        let quotas = icp_baselines::descent::greedy_single_way_descent(
            std::hint::black_box(&equal),
            1,
            |w| {
                -(w.iter()
                    .enumerate()
                    .map(|(t, &q)| curves[t][(q as usize).min(curves[t].len() - 1)])
                    .sum::<u64>() as f64)
            },
        );
        std::hint::black_box(quotas);
    }
    let hill_nanos = hill_start.elapsed().as_nanos();

    let group = threads / clusters;
    let look_start = std::time::Instant::now();
    for _ in 0..REPS {
        // Inter-cluster: merge member curves and lookahead over them with
        // one-way-per-member floors.
        let merged: Vec<Vec<u64>> = (0..clusters)
            .map(|c| {
                let mut m = vec![0u64; ways as usize + 1];
                for curve in curves.iter().skip(c * group).take(group) {
                    for (acc, v) in m.iter_mut().zip(curve) {
                        *acc += v;
                    }
                }
                m
            })
            .collect();
        let floors = vec![group as u32; clusters];
        let budgets =
            icp_core::lookahead_allocate(std::hint::black_box(&merged), ways, &floors);
        // Intra-cluster: split each cluster budget among its members.
        let mut quotas = vec![0u32; threads];
        for (c, &b) in budgets.iter().enumerate() {
            let split = icp_cmp_sim::l2::equal_split(b, group);
            for (t, q) in (c * group..).zip(split) {
                quotas[t] = q;
            }
        }
        std::hint::black_box(quotas);
    }
    let look_nanos = look_start.elapsed().as_nanos();
    hill_nanos as f64 / look_nanos.max(1) as f64
}

/// The `eight_plus_core` scorecard tier: scaling claims on sliced-LLC
/// configurations past the paper's 4-core chip (reproduction extension —
/// the paper stops at the 8-core monolithic L2 of Figure 22).
///
/// One suite benchmark runs at 16 threads on a 4-slice LLC under the flat
/// hill-climbing incumbent ([`Scheme::ModelBased`]) and the hierarchical
/// lookahead scheme, plus 8 threads on a 2-slice LLC, checking that:
///
/// 1. the hierarchical lookahead allocator is >= 10x cheaper in measured
///    wall-clock than the flat hill-climb at 16 threads, both replayed on
///    the run's real utility-monitor curves ([`allocator_speedup`]),
/// 2. that speedup is not bought with throughput: hierarchical lookahead's
///    weighted speedup over the equal split is equal or better than the
///    hill-climb's,
/// 3. partitioning gains persist on sliced machines (16t and 8t).
pub fn eight_plus_core_tier(cfg: &ExperimentConfig) -> Vec<Check> {
    let bench = suite::mgrid();
    // Every run of a topology replays one shared split of the workload.
    let cfg = cfg.with_default_trace_cache();
    let c16 = cfg.clone().with_topology(16, 4);
    let outs = c16.run_schemes(
        &bench,
        &[
            Scheme::Shared,
            Scheme::StaticEqual,
            Scheme::ModelBased,
            Scheme::HierarchicalLookahead(4),
        ],
    );
    let (shared, equal, hill, look) = (&outs[0], &outs[1], &outs[2], &outs[3]);
    let profile = c16
        .run_profiled(&bench, &Scheme::StaticEqual)
        .umon_profile
        .expect("profiled run exports a UMON profile");
    let allocator_speedup = allocator_speedup(&profile, 4);
    let ws_delta = weighted_speedup(look, equal) - weighted_speedup(hill, equal);

    let c8 = cfg.with_topology(8, 2);
    let outs8 = c8.run_schemes(&bench, &[Scheme::Shared, Scheme::ModelBased]);

    vec![
        Check {
            claim: "8+ core: lookahead allocator speedup vs hill-climb (x, 16t)",
            paper: "n/a (scaling extension)",
            measured: allocator_speedup,
            band: (10.0, f64::INFINITY),
        },
        Check {
            claim: "8+ core: weighted-speedup delta, lookahead - hill-climb (16t)",
            paper: "n/a (equal or better)",
            // Equal-or-better within run noise: weighted speedups land
            // within a hundredth of each other or favour lookahead.
            measured: ws_delta,
            band: (-0.01, f64::INFINITY),
        },
        Check {
            claim: "8+ core: hier-lookahead vs static-equal (%, 16t sliced)",
            paper: "n/a (gains persist at scale)",
            measured: look.improvement_percent_over(equal),
            band: (0.0, f64::INFINITY),
        },
        Check {
            claim: "8+ core: hier-lookahead vs shared (%, 16t sliced)",
            paper: "n/a (no collapse vs shared)",
            measured: look.improvement_percent_over(shared),
            // At 16 threads x 64 ways the equal share is 4 ways/thread, so
            // pooled shared LRU is genuinely strong (high-reuse threads
            // borrow idle capacity partitioning walls off); this gate
            // guards against *collapse* on sliced machines, not
            // superiority — figure scale measures ~-8 %.
            band: (-12.0, f64::INFINITY),
        },
        Check {
            claim: "8+ core: dynamic vs shared (%, 8t sliced)",
            paper: "Fig 22: similar gains to 4-core",
            measured: outs8[1].improvement_percent_over(&outs8[0]),
            band: (-3.0, f64::INFINITY),
        },
    ]
}

/// Renders the scorecard as a table.
pub fn scorecard_table(checks: &[Check]) -> Table {
    let mut t = Table::new(
        "Reproduction scorecard: paper claims vs measured",
        &["claim", "paper", "measured", "band", "verdict"],
    );
    for c in checks {
        t.row(vec![
            c.claim.to_string(),
            c.paper.to_string(),
            f2(c.measured),
            format!("[{}, {}]", f2(c.band.0), f2(c.band.1)),
            if c.pass() { "PASS".into() } else { "OUT-OF-BAND".into() },
        ]);
    }
    let passed = checks.iter().filter(|c| c.pass()).count();
    t.row(vec![
        "TOTAL".into(),
        String::new(),
        String::new(),
        String::new(),
        format!("{passed}/{} pass", checks.len()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_pass_logic() {
        let c = Check { claim: "x", paper: "y", measured: 5.0, band: (4.0, 6.0) };
        assert!(c.pass());
        let c = Check { claim: "x", paper: "y", measured: 7.0, band: (4.0, 6.0) };
        assert!(!c.pass());
        let c = Check { claim: "x", paper: "y", measured: 1e9, band: (0.0, f64::INFINITY) };
        assert!(c.pass());
    }

    #[test]
    fn scorecard_runs_at_test_scale() {
        // At test scale we only require the scorecard to *run* and the
        // structural claims to hold; the band assertions are made at
        // figure scale by the ignored integration test.
        let checks = scorecard_from(crate::figures::context::test_data());
        assert_eq!(checks.len(), 11);
        let t = scorecard_table(&checks);
        assert_eq!(t.len(), 12);
        // The ordering claim (equal > shared) must hold even at test scale.
        let ordering = checks
            .iter()
            .find(|c| c.claim.contains("Fig 19 > Fig 20"))
            .unwrap();
        assert!(ordering.pass(), "{ordering:?}");
    }

    #[test]
    fn eight_plus_tier_allocator_speedup_holds_at_test_scale() {
        let checks = eight_plus_core_tier(&ExperimentConfig::test());
        assert_eq!(checks.len(), 5);
        let t = scorecard_table(&checks);
        assert_eq!(t.len(), 6);
        // The two claims this PR stakes must hold even at test scale: the
        // measured >= 10x allocator speedup over the flat hill-climb, and
        // weighted speedup not paying for it. The gains bands are asserted
        // at figure scale by the repro binary / ignored integration tests.
        let speedup = checks
            .iter()
            .find(|c| c.claim.contains("allocator speedup"))
            .unwrap();
        assert!(speedup.pass(), "{speedup:?}");
        let ws = checks
            .iter()
            .find(|c| c.claim.contains("weighted-speedup"))
            .unwrap();
        assert!(ws.pass(), "{ws:?}");
    }
}
