//! Tracked hot-path throughput runs → `BENCH_hotpath.json` at the repo root.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_hotpath                 # record current numbers
//! cargo run --release --bin bench_hotpath -- --set-baseline
//! cargo run --release --bin bench_hotpath -- --events 250000 --repeats 5 --out other.json
//! cargo run --release --bin bench_hotpath -- --only sliced --events 2000 --out smoke.json
//! ```
//!
//! A normal run re-measures the thirteen scenarios and rewrites the
//! `current` section while carrying the `baseline` section over from the
//! existing file, so the pre-optimisation numbers stay recorded alongside
//! every later measurement. `--set-baseline` (re)captures the baseline
//! section instead — run it once before a performance change, then compare
//! with a plain run afterwards.
//!
//! Schema `icp-bench-hotpath/v7` adds the core-budget scheduler scenarios
//! (`suite_figures`, `suite_figures_warm`): one whole figure pass (9
//! benchmarks × 4 schemes at experiment test scale, `--events` ignored)
//! through the LPT token-arbitrated scheduler, cold vs pre-populated
//! caches, plus per-scenario `utilization` and `peak_threads` stats (0
//! where no outer pool runs). `--jobs N` caps the process core budget for
//! the run (equivalent to `ICP_CORES=N`); results are bit-identical at
//! every budget. v6 added the sliced-LLC machine scenarios
//! (`sliced_16t`, `sliced_16t_serial`, `sliced_64t`): 16 threads on a
//! 4-slice and 64 threads on an 8-slice address-hashed LLC, slice-parallel
//! vs the same machine under a one-core budget (digest bit-identical; the
//! throughput ratio is the tracked slice-scaling speedup). v5 added the end-to-end
//! sweep scenarios
//! (`sweep_axis`, `sweep_axis_warm`): one interval-axis sensitivity sweep
//! against a cold vs pre-populated result cache, with counters and digest
//! taken from the cache totals (the cold→warm `host_secs` drop is the
//! result cache's tracked speedup; these two scenarios run the experiment
//! test scale and ignore `--events`). v4 added the per-scenario simulator
//! shard count (`shards`: 1 for the serial simulator, the slice count for
//! sliced scenarios, 0 for generation-only scenarios) on top of v3's
//! `gen_packed` and `pipeline_packed`; a carried-over earlier-schema
//! `baseline` section simply lacks the keys its version predates.
//! `--only SUBSTR` restricts a run to the scenarios whose names contain
//! `SUBSTR` (used by the CI smoke matrix to exercise the sliced path in
//! isolation).

use std::path::{Path, PathBuf};

use icp_experiments::hotpath::{self, HotpathResult, DEFAULT_EVENTS_PER_THREAD};
use icp_experiments::json::Json;

fn results_json(results: &[HotpathResult]) -> Json {
    Json::Obj(results.iter().map(|r| (r.name.to_string(), r.to_json())).collect())
}

/// Repo root: the outermost ancestor of the build-time manifest dir that
/// still has a `Cargo.toml` (works whether this bin is built from the
/// `icp-experiments` crate or re-exported from the workspace root).
fn default_out_path() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .filter(|p| p.join("Cargo.toml").exists())
        .last()
        .unwrap_or_else(|| Path::new("."))
        .join("BENCH_hotpath.json")
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: bench_hotpath [--set-baseline] [--events N] [--repeats N] [--out PATH] \
         [--only SUBSTR] [--jobs N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut set_baseline = false;
    let mut events = DEFAULT_EVENTS_PER_THREAD;
    let mut repeats = 3usize;
    let mut out_path = default_out_path();
    let mut only: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--set-baseline" => set_baseline = true,
            "--events" => {
                events = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage_error("--events takes a positive integer"));
            }
            "--repeats" => {
                repeats = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--repeats takes a positive integer"));
            }
            "--out" => {
                out_path = argv
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage_error("--out takes a path"));
            }
            "--only" => {
                only = Some(
                    argv.next().unwrap_or_else(|| usage_error("--only takes a substring")),
                );
            }
            "--jobs" => {
                let n: usize = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| usage_error("--jobs takes a positive integer"));
                icp_experiments::sched::budget::configure_total(n);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    eprintln!("running hot-path scenarios ({events} events/thread, best of {repeats})...");
    let results = hotpath::run_best_of_matching(events, repeats, only.as_deref());
    if results.is_empty() {
        usage_error("--only matched no scenario");
    }
    for r in &results {
        eprintln!(
            "  {:<18} {:>12.0} accesses/s  {:>12.0} events/s  ({:.3}s host, digest {:016x})",
            r.name,
            r.accesses_per_sec(),
            r.events_per_sec(),
            r.host_secs,
            r.digest,
        );
    }

    let previous = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text));
    let carried = |key: &str| previous.as_ref().and_then(|j| j.get(key)).cloned();

    let measured = results_json(&results);
    let (baseline, current) = if set_baseline {
        // A fresh baseline invalidates any previously recorded current run.
        (Some(measured), None)
    } else {
        (carried("baseline"), Some(measured))
    };

    let mut pairs = vec![
        ("schema".to_string(), Json::str("icp-bench-hotpath/v7")),
        ("events_per_thread".to_string(), Json::u64(events as u64)),
    ];
    if let Some(b) = baseline {
        pairs.push(("baseline".to_string(), b));
    }
    if let Some(c) = current {
        pairs.push(("current".to_string(), c));
    }
    let doc = Json::Obj(pairs);

    std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH_hotpath.json");
    eprintln!("wrote {}", out_path.display());
}
