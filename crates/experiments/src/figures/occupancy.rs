//! Cache-occupancy evolution: how many ways each thread actually *holds*
//! over time, under shared LRU vs the dynamic partitioner.
//!
//! This visualises two things the paper describes but never plots: the LRU
//! equilibrium (occupancy follows insertion rate, so the streaming polluter
//! squats on capacity the critical thread needs), and §V's gradual
//! convergence of the replacement-based enforcement toward each new target
//! partition.

use icp_cmp_sim::Simulator;
use icp_core::apply;
use icp_core::policy::Partitioner;
use icp_workloads::suite;

use crate::chart::LineChart;
use crate::runner::{ExperimentConfig, Scheme};
use crate::table::Table;

/// Samples per-thread average occupancy (ways worth of lines held, averaged
/// over sets) at every interval boundary of a `bench` run under `scheme`.
pub fn occupancy_series(
    cfg: &ExperimentConfig,
    bench_name: &str,
    scheme: &Scheme,
) -> Vec<Vec<f64>> {
    let bench = suite::by_name(bench_name).unwrap_or_else(|| panic!("unknown benchmark {bench_name}"));
    let spec = cfg.normalized(&bench);
    let mut sim = Simulator::new(cfg.system, cfg.streams(&spec));
    sim.set_replacement(cfg.replacement);
    let mut policy = scheme.policy();
    let threads = cfg.system.cores;
    let total_ways = cfg.system.l2.ways;
    // Drive the interval loop by hand so we can snapshot occupancy.
    apply(&mut sim, policy.initial(threads, total_ways));
    let sets = cfg.system.l2.num_sets() as f64;
    let mut series = vec![Vec::new(); threads];
    while let Some(report) = sim.run_interval() {
        for (t, s) in series.iter_mut().enumerate() {
            s.push(sim.l2().ways_owned(t) as f64 / sets);
        }
        if report.finished {
            break;
        }
        apply(&mut sim, policy.repartition(&report, total_ways));
    }
    series
}

/// Renders occupancy evolution as a line chart.
pub fn occupancy_chart(cfg: &ExperimentConfig, bench_name: &str, scheme: &Scheme) -> LineChart {
    let series = occupancy_series(cfg, bench_name, scheme);
    let mut c = LineChart::new(format!(
        "Occupancy (avg ways held per set): {bench_name} under {}",
        scheme.label()
    ));
    for (t, s) in series.into_iter().enumerate() {
        c.series(format!("t{t}"), s);
    }
    c
}

/// Side-by-side occupancy summary (mean ways held) under shared vs dynamic.
pub fn occupancy_table(cfg: &ExperimentConfig, bench_name: &str) -> Table {
    let shared = occupancy_series(cfg, bench_name, &Scheme::Shared);
    let dynamic = occupancy_series(cfg, bench_name, &Scheme::ModelBased);
    let mean = |v: &[f64]| icp_numeric::stats::mean(v);
    let mut t = Table::new(
        format!("Mean ways held per set ({bench_name}): LRU equilibrium vs dynamic partition"),
        &["thread", "shared LRU", "dynamic"],
    );
    for (i, (s, d)) in shared.iter().zip(&dynamic).enumerate() {
        t.row(vec![
            format!("t{i}"),
            format!("{:.1}", mean(s)),
            format!("{:.1}", mean(d)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_sums_to_roughly_all_ways_once_warm() {
        let cfg = ExperimentConfig::test();
        let series = occupancy_series(&cfg, "swim", &Scheme::Shared);
        let threads = series.len();
        let n = series[0].len();
        assert!(n > 3);
        // After warm-up, total held ways per set ~ the full 64 (the suite
        // oversubscribes the cache).
        let last_total: f64 = (0..threads).map(|t| series[t][n - 1]).sum();
        assert!(
            last_total > 60.0 && last_total <= 64.0 + 1e-9,
            "total occupancy {last_total}"
        );
    }

    #[test]
    fn dynamic_shifts_occupancy_toward_critical_thread() {
        let cfg = ExperimentConfig::test();
        let shared = occupancy_series(&cfg, "mgrid", &Scheme::Shared);
        let dynamic = occupancy_series(&cfg, "mgrid", &Scheme::ModelBased);
        // mgrid's critical thread is t1; late in the run it must hold more
        // under the dynamic scheme than under shared LRU.
        let late = |s: &Vec<f64>| {
            let n = s.len();
            icp_numeric::stats::mean(&s[n / 2..])
        };
        assert!(
            late(&dynamic[1]) > late(&shared[1]),
            "dynamic {:.1} <= shared {:.1}",
            late(&dynamic[1]),
            late(&shared[1])
        );
    }

    #[test]
    fn chart_and_table_render() {
        let cfg = ExperimentConfig::test();
        let c = occupancy_chart(&cfg, "cg", &Scheme::ModelBased);
        assert_eq!(c.len(), 4);
        let t = occupancy_table(&cfg, "cg");
        assert_eq!(t.len(), 4);
    }
}
