//! The four workloads: their set-up, one pass through the product's entry
//! points (untraced), and the same pass through the benchmark's traced copy
//! of the runner path.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use icp_cmp_sim::CacheConfig;
use icp_core::ExecutionOutcome;
use icp_experiments::figures::SuiteData;
use icp_experiments::sched::{self, budget};
use icp_experiments::sweeps::{self, SweepMode};
use icp_experiments::table::{pct, Table};
use icp_experiments::{ExperimentConfig, ResultCache, Scheme, TraceCache};
use icp_numeric::stats::mean;
use icp_workloads::{suite, BenchmarkSpec, WorkloadScale};

use crate::layers::Counters;
use crate::trace::Tracer;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 9-benchmark × 4-scheme figure pass, cold caches every pass.
    Figures,
    /// All four exact sensitivity axes against a fresh persistent result
    /// cache.
    Sweeps,
    /// The figure matrix served from a persistent result cache written
    /// during set-up.
    FiguresWarm,
    /// 16 cores over a 4-slice LLC under shared, static-equal and
    /// hierarchical lookahead.
    Sliced16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::Sweeps,
        Workload::FiguresWarm,
        Workload::Sliced16,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Sweeps => "sweeps",
            Workload::FiguresWarm => "figures_warm",
            Workload::Sliced16 => "sliced16",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment configuration the workload runs at `scale`, with
    /// the workload seed as the master seed.
    pub fn config(self, scale: WorkloadScale, seed: u64) -> ExperimentConfig {
        let mut cfg = match scale {
            WorkloadScale::Test => ExperimentConfig::test(),
            _ => ExperimentConfig::quick(),
        };
        cfg.seed = seed;
        match self {
            Workload::Sliced16 => cfg.with_topology(16, 4),
            _ => cfg,
        }
    }
}

/// The suite benchmarks the sliced workload runs (mgrid is the one the
/// `eight-plus` tier measures).
fn sliced_benches() -> Vec<BenchmarkSpec> {
    vec![suite::mgrid(), suite::swim(), suite::cg()]
}

const SLICED_SCHEMES: [Scheme; 3] = [
    Scheme::Shared,
    Scheme::StaticEqual,
    Scheme::HierarchicalLookahead(4),
];

/// The figure pass's four schemes, in `SuiteData` demux order.
const SUITE_SCHEMES: [Scheme; 4] = [
    Scheme::Shared,
    Scheme::StaticEqual,
    Scheme::ModelBased,
    Scheme::UcpThroughput,
];

/// The figure pass's LPT weight for the cell that generates a workload.
const GENERATION_WEIGHT: u64 = 6;

/// Sweep probes and axis points, as `icp_experiments::sweeps` defines them.
fn sweep_probes() -> Vec<BenchmarkSpec> {
    vec![suite::swim(), suite::cg(), suite::ft()]
}
const SWEEP_L2_KB: [u64; 5] = [64, 128, 256, 512, 1024];
const SWEEP_CORES: [usize; 4] = [2, 4, 8, 16];
const SWEEP_INTERVAL_DIVISORS: [u64; 4] = [8, 4, 2, 1];
const SWEEP_MEMORY_LATENCY: [u64; 3] = [75, 150, 300];

/// What one pass produced and what it checked.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// Cells (result-cache lookups) the workload defines per pass.
    pub cells: u64,
    /// Cells the pass's own checks failed.
    pub failed: u64,
    /// Why cells failed.
    pub problems: Vec<String>,
    /// Instructions in the distinct outcomes the pass produced or served.
    pub instructions: u64,
    /// Order-fixed fold of the pass's outcomes (`SuiteData::digest` shape).
    pub digest: u64,
    /// `ResultCache::totals` digest after the pass.
    pub cache_digest: u64,
    /// Rendered sweep tables (empty for the other workloads).
    pub tables: String,
    /// Mean improvement of the dynamic scheme over shared LRU, percent.
    pub gain_vs_shared_pct: f64,
    /// Mean improvement of the dynamic scheme over static-equal, percent.
    pub gain_vs_equal_pct: f64,
    /// Peak live threads during the pass, as the core budget's lease
    /// watermark records them (a record: it cannot exceed the budget).
    pub peak_threads: usize,
    /// Cache and outcome counters (read back by the traced run).
    pub counters: Counters,
}

/// A workload after set-up, ready to run passes.
#[derive(Clone)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Its configuration (scale and seed included).
    pub cfg: ExperimentConfig,
    work: PathBuf,
    /// `figures_warm`: the persistent directory and the digest its cold
    /// pass produced.
    warm: Option<(PathBuf, u64)>,
}

impl Bench {
    /// Sets the workload up under `work` (a directory the benchmark owns).
    ///
    /// `figures_warm` writes the figure matrix to a persistent result
    /// cache. The other workloads prime the process at test scale (one
    /// pass; one sweep axis for `sweeps`), so lazy initialisation and
    /// allocator growth land in set-up rather than in the first timed pass.
    pub fn setup(workload: Workload, scale: WorkloadScale, seed: u64, work: &Path) -> Bench {
        let cfg = workload.config(scale, seed);
        let mut bench = Bench {
            workload,
            cfg,
            work: work.to_path_buf(),
            warm: None,
        };
        let primer = || Bench {
            cfg: workload.config(WorkloadScale::Test, seed),
            ..bench.clone()
        };
        match workload {
            Workload::FiguresWarm => {
                let dir = work.join("warm");
                let _ = std::fs::remove_dir_all(&dir);
                let data = SuiteData::collect(&bench.with_caches(ResultCache::persistent(&dir)));
                bench.warm = Some((dir, data.digest()));
            }
            Workload::Sweeps => {
                let dir = work.join("primer");
                let _ = std::fs::remove_dir_all(&dir);
                let cfg = primer().with_caches(ResultCache::persistent(&dir));
                sweeps::sweep_memory_latency_with(&cfg, SweepMode::Exact);
                let _ = std::fs::remove_dir_all(&dir);
            }
            Workload::Figures | Workload::Sliced16 => {
                let _ = primer().run(None);
            }
        }
        bench
    }

    /// How many times a run sets the workload up (`setup_s` is their
    /// median): once at test scale, where only the outputs matter; at
    /// figure scale, fewer for `figures_warm`, whose cold pass is costly.
    pub fn setups(workload: Workload, scale: WorkloadScale) -> usize {
        match (scale, workload) {
            (WorkloadScale::Test, _) => 1,
            (_, Workload::FiguresWarm) => 3,
            _ => 5,
        }
    }

    /// Result-cache lookups one pass makes.
    pub fn cells_per_pass(&self) -> u64 {
        match self.workload {
            Workload::Figures | Workload::FiguresWarm => {
                (suite::all().len() * SUITE_SCHEMES.len()) as u64
            }
            Workload::Sliced16 => (sliced_benches().len() * SLICED_SCHEMES.len()) as u64,
            Workload::Sweeps => {
                let points = SWEEP_L2_KB.len()
                    + SWEEP_CORES.len()
                    + SWEEP_INTERVAL_DIVISORS.len()
                    + SWEEP_MEMORY_LATENCY.len();
                (points * sweep_probes().len() * 3) as u64
            }
        }
    }

    /// The workload's digest at set-up, where set-up computes one
    /// (`figures_warm`: the cold pass that wrote the directory).
    pub fn setup_digest(&self) -> Option<u64> {
        self.warm.as_ref().map(|(_, d)| *d)
    }

    /// `self.cfg` with `results` and a fresh trace cache attached.
    fn with_caches(&self, results: Arc<ResultCache>) -> ExperimentConfig {
        self.cfg
            .clone()
            .with_result_cache(results)
            .with_trace_cache(TraceCache::shared())
    }

    /// Runs one pass: through the product's entry points when `tracer` is
    /// `None`, through the benchmark's traced copy otherwise.
    pub fn run(&self, tracer: Option<&Tracer>) -> Pass {
        if let Some(t) = tracer {
            t.reset_claims();
        }
        // Peak threads are per pass, not since process start.
        budget::current().reset_watermark();
        match self.workload {
            Workload::Figures => self.figures(tracer, ResultCache::shared()),
            Workload::FiguresWarm => {
                let (dir, _) = self.warm.as_ref().expect("figures_warm is set up");
                self.figures(tracer, ResultCache::persistent(dir))
            }
            Workload::Sliced16 => self.sliced(tracer),
            Workload::Sweeps => self.sweeps(tracer),
        }
    }

    fn figures(&self, tracer: Option<&Tracer>, results: Arc<ResultCache>) -> Pass {
        let start = Instant::now();
        let cfg = self.with_caches(results);
        let (data, peak_threads) = match tracer {
            None => {
                let (data, stats) = SuiteData::collect_with_stats(&cfg);
                (data, stats.peak_threads)
            }
            Some(t) => {
                let benches = suite::all();
                let jobs: Vec<(usize, Scheme)> = (0..benches.len())
                    .flat_map(|i| SUITE_SCHEMES.iter().cloned().map(move |s| (i, s)))
                    .collect();
                let cost = |(i, s): &(usize, Scheme)| {
                    let base = sched::job_cost(&benches[*i], &cfg);
                    if *s == SUITE_SCHEMES[0] {
                        base.saturating_mul(GENERATION_WEIGHT)
                    } else {
                        base
                    }
                };
                let (outs, stats) = t.map(jobs, cost, |(i, s), parent| {
                    t.cell(parent, &cfg, &benches[*i], s)
                });
                (demux(benches, outs), stats.peak_threads)
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let gains = |base: &[ExecutionOutcome]| {
            mean(
                &data
                    .dynamic
                    .iter()
                    .zip(base)
                    .map(|(d, b)| d.improvement_percent_over(b))
                    .collect::<Vec<_>>(),
            )
        };
        let outs: Vec<&ExecutionOutcome> = [&data.shared, &data.equal, &data.dynamic, &data.ucp]
            .into_iter()
            .flatten()
            .collect();
        let mut pass = Pass {
            wall_s,
            gain_vs_shared_pct: gains(&data.shared),
            gain_vs_equal_pct: gains(&data.equal),
            digest: data.digest(),
            peak_threads,
            ..Pass::default()
        };
        self.finish(&mut pass, &cfg, &outs);
        if self.workload == Workload::FiguresWarm {
            let c = pass.counters;
            if c.simulations > 0 {
                pass.failed += c.simulations;
                pass.problems
                    .push(format!("{} warm cells simulated", c.simulations));
            }
            if c.generations > 0 {
                pass.failed = pass.cells;
                pass.problems
                    .push(format!("{} warm trace generations", c.generations));
            }
        }
        pass
    }

    fn sliced(&self, tracer: Option<&Tracer>) -> Pass {
        let start = Instant::now();
        let cfg = self.with_caches(ResultCache::shared());
        let mut outs = Vec::new();
        let mut peak_threads = 0;
        for bench in sliced_benches() {
            match tracer {
                None => {
                    outs.extend(cfg.run_schemes(&bench, &SLICED_SCHEMES));
                    peak_threads = peak_threads.max(budget::current().peak_threads());
                }
                Some(t) => {
                    let (o, stats) = t.map(
                        SLICED_SCHEMES.to_vec(),
                        |_| 1,
                        |s, parent| t.cell(parent, &cfg, &bench, s),
                    );
                    outs.extend(o);
                    peak_threads = peak_threads.max(stats.peak_threads);
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let per_bench = |base: usize| {
            let gains: Vec<f64> = outs
                .chunks(SLICED_SCHEMES.len())
                .map(|o| o[2].improvement_percent_over(&o[base]))
                .collect();
            mean(&gains)
        };
        let mut pass = Pass {
            wall_s,
            gain_vs_shared_pct: per_bench(0),
            gain_vs_equal_pct: per_bench(1),
            digest: fold_digest(outs.iter()),
            peak_threads,
            ..Pass::default()
        };
        self.finish(&mut pass, &cfg, &outs.iter().collect::<Vec<_>>());
        pass
    }

    fn sweeps(&self, tracer: Option<&Tracer>) -> Pass {
        let dir = self.work.join("sweeps");
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let cfg = self.with_caches(ResultCache::persistent(&dir));
        let mut outs = Vec::new();
        let (tables, peak_threads) = match tracer {
            None => {
                let mut peak = 0;
                let mut tables = Vec::new();
                for axis in [
                    sweeps::sweep_cache_size_with,
                    sweeps::sweep_thread_count_with,
                    sweeps::sweep_interval_with,
                    sweeps::sweep_memory_latency_with,
                ] {
                    tables.push(axis(&cfg, SweepMode::Exact));
                    peak = peak.max(budget::current().peak_threads());
                }
                (tables, peak)
            }
            Some(t) => traced_sweeps(t, &cfg, &mut outs),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let column_mean = |col: usize| {
            let cells: Vec<f64> = tables
                .iter()
                .flat_map(|t| {
                    t.to_csv()
                        .lines()
                        .skip(1)
                        .map(str::to_owned)
                        .collect::<Vec<_>>()
                })
                .filter_map(|row| row.split(',').nth(col)?.trim_end_matches('%').parse().ok())
                .collect();
            mean(&cells)
        };
        let mut pass = Pass {
            wall_s,
            gain_vs_shared_pct: column_mean(1),
            gain_vs_equal_pct: column_mean(2),
            tables: tables
                .iter()
                .map(Table::render)
                .collect::<Vec<_>>()
                .join("\n"),
            peak_threads,
            ..Pass::default()
        };
        self.finish(&mut pass, &cfg, &outs.iter().collect::<Vec<_>>());
        // Outcomes are only visible to the traced copy; the persisted
        // totals stand in for the untraced pass.
        pass.digest = pass.cache_digest;
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    /// Reads the pass's cell count and the caches' counters into `pass`.
    fn finish(&self, pass: &mut Pass, cfg: &ExperimentConfig, outs: &[&ExecutionOutcome]) {
        let results = cfg
            .result_cache
            .as_ref()
            .expect("passes run against a result cache");
        let traces = cfg
            .trace_cache
            .as_ref()
            .expect("passes run against a trace cache");
        let totals = results.totals();
        pass.cells = self.cells_per_pass();
        pass.instructions = totals.instructions;
        pass.cache_digest = totals.digest;
        pass.counters = Counters {
            passes: 1,
            hits: results.hits(),
            disk_hits: results.disk_hits(),
            simulations: results.simulations(),
            generations: traces.generations(),
            trace_hits: traces.hits(),
            packed_bytes: traces.packed_bytes() as u64,
            l2_hits: outs
                .iter()
                .flat_map(|o| &o.thread_totals)
                .map(|c| c.l2_hits)
                .sum(),
            l2_misses: outs
                .iter()
                .flat_map(|o| &o.thread_totals)
                .map(|c| c.l2_misses)
                .sum(),
            ..Counters::default()
        };
    }
}

/// Splits bench-major (bench × scheme) outcomes into the figure matrix.
fn demux(benches: Vec<BenchmarkSpec>, outs: Vec<ExecutionOutcome>) -> SuiteData {
    let mut data = SuiteData {
        benches,
        shared: Vec::new(),
        equal: Vec::new(),
        dynamic: Vec::new(),
        ucp: Vec::new(),
    };
    for (j, out) in outs.into_iter().enumerate() {
        match j % SUITE_SCHEMES.len() {
            0 => data.shared.push(out),
            1 => data.equal.push(out),
            2 => data.dynamic.push(out),
            _ => data.ucp.push(out),
        }
    }
    data
}

/// The `SuiteData::digest` fold over outcomes in the given order.
fn fold_digest<'a>(outs: impl Iterator<Item = &'a ExecutionOutcome>) -> u64 {
    let mut d = 0u64;
    for out in outs {
        let mut acc = out.wall_cycles;
        for c in &out.thread_totals {
            acc = acc.wrapping_mul(1_000_003).wrapping_add(
                c.active_cycles
                    .wrapping_mul(31)
                    .wrapping_add(c.l2_misses)
                    .wrapping_add(c.l2_hits.wrapping_mul(7)),
            );
        }
        d = d.wrapping_mul(1_000_003).wrapping_add(acc);
    }
    d
}

/// The four exact sweep axes rebuilt from public calls: every probe's
/// three schemes go through one scheduler map, the interval axis runs its
/// static baselines at the base interval. Returns the tables and the peak
/// thread count, and collects every outcome into `outs`.
fn traced_sweeps(
    t: &Tracer,
    cfg: &ExperimentConfig,
    outs: &mut Vec<ExecutionOutcome>,
) -> (Vec<Table>, usize) {
    let mut peak = 0;
    let mut measure = |point: &ExperimentConfig, baseline: &ExperimentConfig| {
        let (mut vs_shared, mut vs_equal) = (Vec::new(), Vec::new());
        for bench in sweep_probes() {
            let jobs = vec![
                (baseline.clone(), Scheme::Shared),
                (baseline.clone(), Scheme::StaticEqual),
                (point.clone(), Scheme::ModelBased),
            ];
            let (o, stats) = t.map(jobs, |_| 1, |(c, s), parent| t.cell(parent, c, &bench, s));
            peak = peak.max(stats.peak_threads);
            vs_shared.push(o[2].improvement_percent_over(&o[0]));
            vs_equal.push(o[2].improvement_percent_over(&o[1]));
            outs.extend(o);
        }
        (pct(mean(&vs_shared)), pct(mean(&vs_equal)))
    };
    let headers = |first: &'static str| [first, "vs shared", "vs equal"];

    let mut size = Table::new(
        "Sweep: L2 capacity (dynamic scheme improvements, probe set)",
        &headers("l2 size"),
    );
    for kb in SWEEP_L2_KB {
        let mut c = cfg.clone();
        c.system.l2 = CacheConfig::new(kb * 1024, 64, 64);
        let (s, e) = measure(&c, &c);
        size.row(vec![format!("{kb} KB"), s, e]);
    }
    let mut cores = Table::new(
        "Sweep: cores/threads sharing one L2 (dynamic scheme improvements)",
        &headers("cores"),
    );
    for n in SWEEP_CORES {
        let c = cfg.clone().with_cores(n);
        let (s, e) = measure(&c, &c);
        cores.row(vec![n.to_string(), s, e]);
    }
    let mut interval = Table::new(
        "Sweep: execution interval length (dynamic scheme improvements)",
        &headers("interval (instructions)"),
    );
    for divisor in SWEEP_INTERVAL_DIVISORS {
        let mut c = cfg.clone();
        c.system.interval_instructions = (cfg.system.interval_instructions / divisor).max(1_000);
        let (s, e) = measure(&c, cfg);
        interval.row(vec![c.system.interval_instructions.to_string(), s, e]);
    }
    let mut memory = Table::new(
        "Sweep: DRAM latency (dynamic scheme improvements)",
        &headers("latency (cycles)"),
    );
    for latency in SWEEP_MEMORY_LATENCY {
        let mut c = cfg.clone();
        c.system.latency.memory = latency;
        let (s, e) = measure(&c, &c);
        memory.row(vec![latency.to_string(), s, e]);
    }
    (vec![size, cores, interval, memory], peak)
}
