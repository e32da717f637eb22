//! Cache-sensitivity figures: Figure 10 (per-thread way sensitivity) and
//! Figure 15 (runtime CPI models + the chosen partition).

use icp_cmp_sim::Simulator;
use icp_core::{ExecutionOutcome, IntraAppRuntime, ModelBasedPolicy};
use icp_workloads::suite;

use crate::runner::{ExperimentConfig, Scheme};
use crate::table::{f2, Table};

/// Figure 10: CPI of two SWIM threads when the thread runs with 16 vs 32
/// dedicated ways (static partitions). The paper's point: thread 0 improves
/// markedly with more ways while thread 1 barely moves — threads of one
/// application differ in cache sensitivity.
pub fn fig10_way_sensitivity(cfg: &ExperimentConfig) -> Table {
    let bench = suite::swim();
    let threads = cfg.system.cores;
    let total = cfg.system.l2.ways;
    let mut table = Table::new(
        "Figure 10: SWIM thread CPI at 16 vs 32 dedicated ways",
        &["thread", "cpi@16", "cpi@32", "reduction"],
    );
    for target in [0usize, 1usize] {
        let mut cpis = Vec::new();
        for give in [16u32, 32u32] {
            // The target thread gets `give` ways; the rest split the rest.
            let others = icp_cmp_sim::l2::equal_split(total - give, threads - 1);
            let mut ways = Vec::new();
            let mut oi = 0;
            for t in 0..threads {
                if t == target {
                    ways.push(give);
                } else {
                    ways.push(others[oi]);
                    oi += 1;
                }
            }
            let out = cfg.run(&bench, &Scheme::StaticCustom(ways));
            cpis.push(out.thread_totals[target].cpi());
        }
        let reduction = (cpis[0] - cpis[1]) / cpis[0] * 100.0;
        table.row(vec![
            format!("t{target}"),
            f2(cpis[0]),
            f2(cpis[1]),
            format!("{reduction:.1}%"),
        ]);
    }
    table
}

/// The model-based SWIM run both Figure 15 renderings read: the outcome
/// and the runtime whose policy holds the learned CPI models.
fn fig15_run(cfg: &ExperimentConfig) -> (ExecutionOutcome, IntraAppRuntime<ModelBasedPolicy>) {
    let spec = cfg.normalized(&suite::swim());
    let mut sim = Simulator::new(cfg.system, cfg.streams(&spec));
    let mut runtime = IntraAppRuntime::new(ModelBasedPolicy::new(), &cfg.system);
    let out = runtime.execute(&mut sim);
    (out, runtime)
}

/// Figure 15: the per-thread CPI-vs-ways models a dynamic run learns, plus
/// the partition the hill-climb chose. Sampled at powers of two plus the
/// chosen allocation.
pub fn fig15_cpi_models(cfg: &ExperimentConfig) -> Table {
    let (out, runtime) = fig15_run(cfg);
    let policy = runtime.policy();
    let threads = out.thread_totals.len();

    let mut headers = vec!["ways".to_string()];
    headers.extend((0..threads).map(|t| format!("cpi:t{t}")));
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 15: learned CPI-vs-ways models (SWIM) and the final partition",
        &hdr,
    );
    for w in [2u32, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64] {
        if w > cfg.system.l2.ways {
            continue;
        }
        let mut row = vec![w.to_string()];
        for t in 0..threads {
            let v = policy.models().get(t).and_then(|m| m.predict(w));
            row.push(v.map(f2).unwrap_or_else(|| "-".into()));
        }
        table.row(row);
    }
    // Final partition row.
    let last = out.records.last().expect("at least one interval");
    let mut row = vec!["chosen".to_string()];
    row.extend(last.ways.iter().map(|w| w.to_string()));
    table.row(row);
    table
}

/// Line-chart rendering of the Figure 15 models: each thread's learned
/// CPI-vs-ways curve sampled across the whole way range.
pub fn fig15_chart(cfg: &ExperimentConfig) -> crate::chart::LineChart {
    let (_, runtime) = fig15_run(cfg);
    let policy = runtime.policy();
    let mut c = crate::chart::LineChart::new(
        "Figure 15 (chart): learned CPI-vs-ways models",
    )
    .xlabel("cache ways - 1");
    for (t, model) in policy.models().iter().enumerate() {
        let curve: Vec<f64> = model
            .curve(cfg.system.l2.ways)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        if !curve.is_empty() {
            c.series(format!("t{t}"), curve);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_thread0_more_sensitive_than_thread1() {
        let cfg = ExperimentConfig::test();
        let t = fig10_way_sensitivity(&cfg);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let parse = |line: &str| -> (f64, f64) {
            let cells: Vec<&str> = line.split(',').collect();
            (cells[1].parse().unwrap(), cells[2].parse().unwrap())
        };
        let (a16, a32) = parse(rows[0]);
        let (b16, b32) = parse(rows[1]);
        let red0 = (a16 - a32) / a16;
        let red1 = (b16 - b32) / b16;
        assert!(
            red0 > red1 + 0.02,
            "thread 0 should be clearly more way-sensitive: {red0} vs {red1}"
        );
    }

    #[test]
    fn fig15_has_model_rows_and_partition() {
        let cfg = ExperimentConfig::test();
        let t = fig15_cpi_models(&cfg);
        assert!(t.len() >= 5);
        assert!(t.render().contains("chosen"));
    }
}
