//! Hot-path throughput bench: `cargo bench -p icp-bench --bench hotpath`.
//!
//! Self-contained harness (no external bench framework): runs the thirteen
//! tracked scenarios from `icp_experiments::hotpath` several times and
//! reports best/median accesses-per-second. The canonical tracked numbers
//! come from `cargo run --release --bin bench_hotpath`, which writes
//! `BENCH_hotpath.json` at the repo root; this bench is the quick
//! interactive front-end over the same scenario code.

use icp_experiments::hotpath::{
    gen_only, gen_packed, interleaved_4t, l2_miss_prefetch, pipeline_packed, single_access,
    sliced_16t, sliced_16t_serial, sliced_64t, suite_figures, suite_figures_warm, sweep_axis,
    sweep_axis_warm, HotpathResult,
};

const EVENTS_PER_THREAD: usize = 500_000;
const RUNS: usize = 5;

fn bench(name: &str, f: fn(usize) -> HotpathResult) {
    let mut rates: Vec<f64> = (0..RUNS).map(|_| f(EVENTS_PER_THREAD).accesses_per_sec()).collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{name:<18} best {:>12.0} acc/s   median {:>12.0} acc/s   ({RUNS} runs × {EVENTS_PER_THREAD} events/thread)",
        rates[RUNS - 1],
        rates[RUNS / 2],
    );
}

fn main() {
    // `cargo bench` passes `--bench`; a `--quick` flag (or any filter we
    // don't understand) is ignored, matching libtest's permissiveness.
    bench("single_access", single_access);
    bench("l2_miss_prefetch", l2_miss_prefetch);
    bench("interleaved_4t", interleaved_4t);
    bench("gen_only", gen_only);
    bench("gen_packed", gen_packed);
    bench("pipeline_packed", pipeline_packed);
    bench("sliced_16t", sliced_16t);
    bench("sliced_16t_serial", sliced_16t_serial);
    bench("sliced_64t", sliced_64t);
    bench("sweep_axis", sweep_axis);
    bench("sweep_axis_warm", sweep_axis_warm);
    bench("suite_figures", suite_figures);
    bench("suite_figures_warm", suite_figures_warm);
}
