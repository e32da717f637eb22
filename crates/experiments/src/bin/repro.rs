//! Reproduction driver: regenerates the paper's figures and tables.
//!
//! ```text
//! repro all                    # every figure, printed and saved to results/
//! repro fig3 fig19 ...         # selected figures
//! repro scorecard              # paper-band checks (PASS/OUT-OF-BAND)
//! repro eight-plus             # 8+ core sliced-LLC tier (lookahead vs
//!                              # hill-climb speedup, scaling gains)
//! repro calibrate              # raw calibration diagnostics
//! repro dump <bench> <scheme> [cores]   # per-interval execution dump
//! repro sweeps [--fast|--exact] [--axis NAME] [--cache DIR] [--assert-warm]
//!                              # sensitivity sweeps; --cache persists
//!                              # simulation results (e.g. results/cache/),
//!                              # --assert-warm fails unless everything hit
//! repro prediction [--max-mean-error PCT]  # fast-path error figure + gate
//! repro suite [--assert-warm]  # one cold + one warm figure pass through the
//!                              # core-budget scheduler, with utilization and
//!                              # peak-thread stats; --assert-warm fails unless
//!                              # the warm pass simulated nothing
//! repro ablations              # the design-choice ablation tables
//!
//! options (apply to any command):
//!   --seed N        master seed (default: fixed)
//!   --cores N       simulated cores/threads (default 4)
//!   --scale test|figure   workload length (default figure)
//!   --jobs N        core budget for this process (like ICP_CORES=N): every
//!                   thread — suite workers, slice workers, trace
//!                   producers — is leased from this pool; results are
//!                   bit-identical at every value
//! ```
//!
//! Figures and `all` combine into one pass; any other command runs alone.
//! A missing or unknown command, or a second command beside one that runs
//! alone, prints the usage and exits with status 2.

use std::fs;
use std::path::Path;

use icp_experiments::figures::{self, SuiteData};
use icp_experiments::runner::ExperimentConfig;
use icp_experiments::scorecard;
use icp_experiments::table::Table;
use icp_experiments::Scheme;
use icp_workloads::WorkloadScale;

fn emit(out_dir: Option<&Path>, id: &str, table: &Table) {
    println!("{}", table.render());
    if let Some(dir) = out_dir {
        let _ = fs::write(dir.join(format!("{id}.txt")), table.render());
        let _ = fs::write(dir.join(format!("{id}.csv")), table.to_csv());
        let _ = fs::write(
            dir.join(format!("{id}.json")),
            icp_experiments::json::table_to_json(table).to_string(),
        );
    }
}

/// Figure commands: any combination runs in one pass, `all` runs every one.
const FIGURES: [&str; 16] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig15",
    "fig18", "fig19", "fig20", "fig21", "fig22",
];

/// Every other command, with its operands and flags.
const COMMANDS: [(&str, &str); 16] = [
    ("all", ""),
    ("scorecard", ""),
    ("eight-plus", ""),
    ("calibrate", ""),
    ("describe", ""),
    ("report", ""),
    ("robustness", ""),
    ("slack", ""),
    ("mechanism", ""),
    ("overhead", ""),
    ("ablations", ""),
    ("occupancy", " [bench]"),
    ("dump", " <bench> <scheme> [cores]"),
    (
        "sweeps",
        " [--fast|--exact] [--axis NAME] [--cache DIR] [--assert-warm]",
    ),
    ("prediction", " [--max-mean-error PCT]"),
    ("suite", " [--assert-warm]"),
];

/// Prints `msg` and the usage, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: repro <command> [options]");
    eprintln!("  {} (any combination)", FIGURES.join(" "));
    for (name, operands) in COMMANDS {
        eprintln!("  {name}{operands}");
    }
    eprintln!("options: --seed N  --cores N  --scale test|figure|paper  --jobs N");
    std::process::exit(2);
}

/// Pulls `--flag value` out of the argument list, returning the remainder.
fn take_option(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(jobs) = take_option(&mut args, "--jobs") {
        let n: usize = jobs.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--jobs expects a positive integer");
            std::process::exit(2);
        });
        // Must win the race with first use: nothing parallel has run yet.
        icp_experiments::sched::budget::configure_total(n);
    }

    let mut cfg = ExperimentConfig::quick();
    if let Some(seed) = take_option(&mut args, "--seed") {
        cfg.seed = seed.parse().unwrap_or_else(|_| {
            eprintln!("--seed expects an integer");
            std::process::exit(2);
        });
    }
    if let Some(scale) = take_option(&mut args, "--scale") {
        cfg.scale = match scale.as_str() {
            "test" => WorkloadScale::Test,
            "figure" => WorkloadScale::Figure,
            "paper" => WorkloadScale::Paper,
            other => {
                eprintln!("unknown scale {other} (expected test|figure|paper)");
                std::process::exit(2);
            }
        };
    }
    if let Some(cores) = take_option(&mut args, "--cores") {
        let n: usize = cores.parse().unwrap_or_else(|_| {
            eprintln!("--cores expects an integer");
            std::process::exit(2);
        });
        cfg = cfg.with_cores(n);
    }
    // Interval length tracks the chosen scale and core count so every run
    // covers ~50 execution intervals, like the paper's measurement window.
    let per_thread = 12_000.0 * 10.0 * cfg.scale.factor();
    cfg.system.interval_instructions =
        ((per_thread * cfg.system.cores as f64) / 50.0).max(1_000.0) as u64;

    // Every word left must be a command, a command's flag, a flag's value
    // or one of `dump`'s or `occupancy`'s operands.
    if args.is_empty() {
        usage_error("no command given");
    }
    let mut commands = Vec::new();
    let mut words = args.iter().map(String::as_str);
    while let Some(word) = words.next() {
        let skip = match word {
            "--axis" | "--cache" | "--max-mean-error" => 1,
            _ if word.starts_with("--") => 0,
            _ if FIGURES.contains(&word) || COMMANDS.iter().any(|(name, _)| *name == word) => {
                commands.push(word);
                match word {
                    "occupancy" => 1,
                    "dump" => 3,
                    _ => 0,
                }
            }
            _ => usage_error(&format!("unknown command `{word}`")),
        };
        for _ in 0..skip {
            words.next();
        }
    }
    // Figures and `all` combine into one figure pass; any other command
    // runs alone.
    if commands.len() > 1 {
        if let Some(alone) = commands.iter().find(|c| **c != "all" && !FIGURES.contains(c)) {
            usage_error(&format!("`{alone}` runs alone, but got `{}`", commands.join(" ")));
        }
    }

    if let Some(pos) = args.iter().position(|a| a == "dump") {
        let bench = args.get(pos + 1).map(String::as_str).unwrap_or("swim");
        let cfg = match args.get(pos + 3).and_then(|c| c.parse::<usize>().ok()) {
            Some(n) => cfg.with_cores(n),
            None => cfg,
        };
        let scheme = match args.get(pos + 2).map(String::as_str).unwrap_or("model-based") {
            "shared" => Scheme::Shared,
            "static-equal" => Scheme::StaticEqual,
            "cpi-proportional" => Scheme::CpiProportional,
            "ucp-throughput" => Scheme::UcpThroughput,
            "model-throughput" => Scheme::ModelThroughput,
            "fairness" => Scheme::Fairness,
            _ => Scheme::ModelBased,
        };
        println!("{}", figures::interval_dump(&cfg, bench, &scheme).render());
        return;
    }

    if args.iter().any(|a| a == "robustness") {
        eprintln!("[repro] running the suite under 5 seeds ...");
        let _ = fs::create_dir_all("results");
        emit(
            Some(Path::new("results")),
            "robustness",
            &figures::robustness_table(&cfg, &[1, 42, 1337, 9999, 31_415_926]),
        );
        return;
    }

    if args.iter().any(|a| a == "report") {
        eprintln!("[repro] building the full report ...");
        let data = SuiteData::collect(&cfg);
        let mut doc = String::new();
        doc.push_str("# Reproduction report

");
        doc.push_str("Generated by `repro report` (deterministic seed ");
        doc.push_str(&cfg.seed.to_string());
        doc.push_str(", figure scale).

");
        let checks = scorecard::scorecard_from(&data);
        doc.push_str(&scorecard::scorecard_table(&checks).render());
        doc.push('\n');
        doc.push_str(&figures::calibration_report_from(&data).render());
        doc.push('\n');
        doc.push_str(&figures::fig19_vs_private(&data).render());
        doc.push('\n');
        doc.push_str(&figures::fig20_vs_shared(&data).render());
        doc.push('\n');
        doc.push_str(&figures::fig21_vs_throughput(&data).render());
        doc.push('\n');
        doc.push_str(&figures::slack_table(&data).render());
        doc.push('\n');
        doc.push_str(
            &figures::improvement_chart("Figure 20 (chart): dynamic vs shared", &data, &data.shared)
                .render(),
        );
        let _ = fs::create_dir_all("results");
        let _ = fs::write("results/REPORT.md", &doc);
        println!("{doc}");
        eprintln!("[repro] written to results/REPORT.md");
        return;
    }

    if args.iter().any(|a| a == "describe") {
        print!("{}", icp_workloads::suite::describe());
        return;
    }

    if args.iter().any(|a| a == "calibrate") {
        println!("{}", figures::calibration_report(&cfg).render());
        return;
    }

    if args.iter().any(|a| a == "sweeps") {
        use icp_experiments::sweeps::{self, SweepMode};
        let mode = if args.iter().any(|a| a == "--fast") {
            SweepMode::fast()
        } else {
            // --exact is the default; accept the flag for symmetry.
            SweepMode::Exact
        };
        let axis = take_option(&mut args, "--axis");
        let assert_warm = args.iter().any(|a| a == "--assert-warm");
        // A persistent result cache shares simulations across axes within
        // this run and across reruns (the CI cold/warm smoke relies on it).
        let cache = match take_option(&mut args, "--cache") {
            Some(dir) => icp_experiments::ResultCache::persistent(dir),
            None => icp_experiments::ResultCache::shared(),
        };
        let cfg = cfg.with_result_cache(cache.clone()).with_default_trace_cache();
        let _ = fs::create_dir_all("results");
        let out = Some(Path::new("results"));
        eprintln!("[repro] running sensitivity sweeps ({mode:?}) ...");
        let run_axis = |name: &str| match name {
            "cache-size" => emit(out, "sweep_cache_size", &sweeps::sweep_cache_size_with(&cfg, mode)),
            "thread-count" => emit(out, "sweep_thread_count", &sweeps::sweep_thread_count_with(&cfg, mode)),
            "interval" => emit(out, "sweep_interval", &sweeps::sweep_interval_with(&cfg, mode)),
            "memory-latency" => {
                emit(out, "sweep_memory_latency", &sweeps::sweep_memory_latency_with(&cfg, mode))
            }
            other => {
                eprintln!("unknown axis {other} (expected cache-size|thread-count|interval|memory-latency)");
                std::process::exit(2);
            }
        };
        match axis.as_deref() {
            Some(name) => run_axis(name),
            None => {
                for name in ["cache-size", "thread-count", "interval", "memory-latency"] {
                    run_axis(name);
                }
            }
        }
        eprintln!(
            "[repro] result cache: {} simulations, {} hits ({} from disk)",
            cache.simulations(),
            cache.hits(),
            cache.disk_hits()
        );
        if assert_warm && (cache.simulations() > 0 || cache.hits() == 0) {
            eprintln!(
                "[repro] --assert-warm failed: expected every run to come from the cache"
            );
            std::process::exit(1);
        }
        return;
    }

    if args.iter().any(|a| a == "prediction") {
        let max_mean = take_option(&mut args, "--max-mean-error")
            .map(|v| {
                v.parse::<f64>().unwrap_or_else(|_| {
                    eprintln!("--max-mean-error expects a percentage");
                    std::process::exit(2);
                })
            });
        eprintln!("[repro] measuring fast-path prediction error ...");
        let cfg = cfg.with_default_trace_cache().with_default_result_cache();
        let errors = figures::prediction_errors(&cfg);
        let table = figures::prediction_error_table(&cfg);
        println!("{}", table.render());
        let _ = fs::create_dir_all("results");
        emit(Some(Path::new("results")), "prediction_error", &table);
        if let Some(limit) = max_mean {
            if errors.mean_pct() > limit {
                eprintln!(
                    "[repro] prediction gate failed: mean error {:.1}% > {limit}%",
                    errors.mean_pct()
                );
                std::process::exit(1);
            }
            eprintln!(
                "[repro] prediction gate passed: mean error {:.1}% <= {limit}%",
                errors.mean_pct()
            );
        }
        return;
    }

    if args.iter().any(|a| a == "suite") {
        let assert_warm = args.iter().any(|a| a == "--assert-warm");
        let cache = icp_experiments::ResultCache::shared();
        let cfg = cfg.with_result_cache(cache.clone()).with_default_trace_cache();
        let budget = icp_experiments::sched::budget::current();
        eprintln!(
            "[repro] cold figure pass through the core-budget scheduler (budget {}) ...",
            budget.total()
        );
        let (cold_data, cold) = SuiteData::collect_with_stats(&cfg);
        eprintln!(
            "[repro] cold: {:.3}s, {} jobs on {} workers, peak {} threads, {:.0}% utilization",
            cold.elapsed_secs,
            cold.jobs,
            cold.workers,
            cold.peak_threads,
            cold.utilization * 100.0
        );
        let cold_sims = cache.simulations();
        eprintln!("[repro] warm figure pass (same caches) ...");
        let (warm_data, warm) = SuiteData::collect_with_stats(&cfg);
        eprintln!(
            "[repro] warm: {:.3}s, {} simulations (cold pass ran {})",
            warm.elapsed_secs,
            cache.simulations() - cold_sims,
            cold_sims
        );
        if warm_data.digest() != cold_data.digest() {
            eprintln!("[repro] suite failed: warm digest differs from cold");
            std::process::exit(1);
        }
        eprintln!("[repro] digest {:016x} (cold == warm)", cold_data.digest());
        if assert_warm && (cache.simulations() != cold_sims || cache.hits() == 0) {
            eprintln!("[repro] --assert-warm failed: expected every warm run to come from the cache");
            std::process::exit(1);
        }
        return;
    }

    if args.iter().any(|a| a == "ablations") {
        eprintln!("[repro] running the ablations ...");
        let _ = fs::create_dir_all("results");
        for (id, table) in figures::ablation_tables(&cfg) {
            emit(Some(Path::new("results")), id, &table);
        }
        return;
    }

    if args.iter().any(|a| a == "occupancy") {
        let bench = args.iter().skip_while(|a| *a != "occupancy").nth(1)
            .cloned().unwrap_or_else(|| "mgrid".into());
        println!("{}", figures::occupancy_table(&cfg, &bench).render());
        println!("{}", figures::occupancy_chart(&cfg, &bench, &Scheme::Shared).render());
        println!("{}", figures::occupancy_chart(&cfg, &bench, &Scheme::ModelBased).render());
        return;
    }

    if args.iter().any(|a| a == "mechanism") {
        let _ = fs::create_dir_all("results");
        eprintln!("[repro] comparing way vs set partitioning ...");
        emit(Some(Path::new("results")), "mechanism", &figures::mechanism_table(&cfg));
        emit(
            Some(Path::new("results")),
            "mechanism_banked",
            &figures::mechanism_banked_table(&cfg, 8),
        );
        return;
    }

    if args.iter().any(|a| a == "overhead") {
        let _ = fs::create_dir_all("results");
        emit(Some(Path::new("results")), "overhead", &figures::overhead_table(&cfg));
        return;
    }

    if args.iter().any(|a| a == "slack") {
        eprintln!("[repro] running suite under 4 schemes ...");
        let data = SuiteData::collect(&cfg);
        let _ = fs::create_dir_all("results");
        let out = Some(Path::new("results"));
        emit(out, "slack_table", &figures::slack_table(&data));
        emit(out, "slack_critical_cpi_swim", &figures::critical_cpi_distribution(&data, "swim"));
        return;
    }

    if args.iter().any(|a| a == "scorecard") {
        let checks = scorecard::run_scorecard(&cfg);
        let table = scorecard::scorecard_table(&checks);
        println!("{}", table.render());
        let _ = fs::create_dir_all("results");
        let _ = fs::write("results/scorecard.txt", table.render());
        let failed = checks.iter().filter(|c| !c.pass()).count();
        if failed > 0 {
            eprintln!("{failed} claim(s) out of band");
            std::process::exit(1);
        }
        return;
    }

    if args.iter().any(|a| a == "eight-plus") {
        eprintln!("[repro] running the 8+ core sliced-LLC tier (16t x 4 slices, 8t x 2 slices) ...");
        let checks = scorecard::eight_plus_core_tier(&cfg);
        let table = scorecard::scorecard_table(&checks);
        println!("{}", table.render());
        let _ = fs::create_dir_all("results");
        let _ = fs::write("results/eight_plus_core.txt", table.render());
        let failed = checks.iter().filter(|c| !c.pass()).count();
        if failed > 0 {
            eprintln!("{failed} claim(s) out of band");
            std::process::exit(1);
        }
        return;
    }

    let all = args.iter().any(|a| a == "all");
    let wants = |f: &str| all || args.iter().any(|a| a == f);

    let out_dir = Path::new("results");
    let _ = fs::create_dir_all(out_dir);
    let out_dir = Some(out_dir);

    if wants("fig2") {
        emit(out_dir, "fig02_config", &figures::fig02_config(&cfg.system));
    }

    // Motivation + time-series figures share the suite runs.
    let needs_suite = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig19", "fig20", "fig21"]
        .iter()
        .any(|f| wants(f));
    if needs_suite {
        eprintln!("[repro] running suite under 4 schemes ...");
        let data = SuiteData::collect(&cfg);
        if wants("fig3") {
            emit(out_dir, "fig03_thread_performance", &figures::fig03_thread_performance(&data));
        }
        if wants("fig4") {
            emit(out_dir, "fig04_thread_misses", &figures::fig04_thread_misses(&data));
        }
        if wants("fig5") {
            emit(out_dir, "fig05_cpi_miss_correlation", &figures::fig05_cpi_miss_correlation(&data));
        }
        if wants("fig6") {
            emit(out_dir, "fig06_swim_cpi_timeline", &figures::fig06_swim_cpi_timeline(&data));
        }
        if wants("fig7") {
            emit(out_dir, "fig07_swim_miss_timeline", &figures::fig07_swim_miss_timeline(&data));
        }
        if wants("fig8") {
            emit(out_dir, "fig08_interthread_interaction", &figures::fig08_interthread_interaction(&data));
        }
        if wants("fig9") {
            emit(out_dir, "fig09_interaction_breakdown", &figures::fig09_interaction_breakdown(&data));
        }
        if wants("fig19") {
            emit(out_dir, "fig19_vs_private", &figures::fig19_vs_private(&data));
            println!("{}", figures::improvement_chart(
                "Figure 19 (chart): dynamic vs private", &data, &data.equal).render());
        }
        if wants("fig20") {
            emit(out_dir, "fig20_vs_shared", &figures::fig20_vs_shared(&data));
            println!("{}", figures::improvement_chart(
                "Figure 20 (chart): dynamic vs shared", &data, &data.shared).render());
        }
        if wants("fig21") {
            emit(out_dir, "fig21_vs_throughput", &figures::fig21_vs_throughput(&data));
            println!("{}", figures::improvement_chart(
                "Figure 21 (chart): dynamic vs throughput-oriented", &data, &data.ucp).render());
        }
        if wants("fig6") {
            println!("{}", figures::fig06_chart(&data).render());
        }
    }

    if wants("fig10") {
        emit(out_dir, "fig10_way_sensitivity", &figures::fig10_way_sensitivity(&cfg));
    }
    if wants("fig11") {
        emit(out_dir, "fig11_progress", &figures::fig11_progress_illustration(&cfg));
    }
    if wants("fig15") {
        emit(out_dir, "fig15_cpi_models", &figures::fig15_cpi_models(&cfg));
        println!("{}", figures::fig15_chart(&cfg).render());
    }
    if wants("fig18") {
        emit(out_dir, "fig18_cg_snapshot", &figures::fig18_cg_snapshot(&cfg));
    }
    if wants("fig22") {
        eprintln!("[repro] running 8-core sensitivity ...");
        emit(out_dir, "fig22_eight_core", &figures::fig22_eight_core(&cfg));
    }
}
