//! Runs one workload of the repository benchmark and prints its result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale figure|test] [--work DIR] [--out DIR]
//!           [--reference FILE] [--record-reference] [--revision REV]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The line before it carries the run's provenance. Lines starting with `#`
//! report progress, so a wrapper can count the cells of a run that dies.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use icp_experiments::json::Json;
use icp_experiments::sched::budget;
use icp_experiments::ExperimentConfig;
use icp_perfbench::layers::{self, Counters};
use icp_perfbench::stats::{median, percentile};
use icp_perfbench::trace::{Span, Tracer};
use icp_perfbench::workload::{Bench, Pass, Workload};
use icp_workloads::WorkloadScale;

const USAGE: &str = "usage: perfbench --workload figures|sweeps|figures_warm|sliced16 --seed N \
--seconds S --trace 0|1 [--scale figure|test] [--work DIR] [--out DIR] \
[--reference FILE] [--record-reference] [--revision REV]";

/// The build profile `Cargo.toml` pins for this package.
const PROFILE: &str = "release (lto = fat, codegen-units = 1)";

/// Fewest untraced passes a `--trace 0` run makes.
const MIN_PASSES: u32 = 3;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: WorkloadScale,
    work: PathBuf,
    out: PathBuf,
    reference: Option<PathBuf>,
    record_reference: bool,
    revision: String,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut o = Opts {
            workload: Workload::Figures,
            seed: 0,
            seconds: 10,
            trace: false,
            scale: WorkloadScale::Figure,
            work: PathBuf::from(".bench_build/perfbench-work"),
            out: PathBuf::from(".bench_build/perfbench-out"),
            reference: None,
            record_reference: false,
            revision: "unknown".into(),
        };
        let mut workload = None;
        let mut seed = None;
        while let Some(flag) = args.next() {
            if flag == "--record-reference" {
                o.record_reference = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, got {v}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number(&value)?),
                "--seconds" => o.seconds = number(&value)?,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                    }
                }
                "--scale" => {
                    o.scale = match value.as_str() {
                        "figure" => WorkloadScale::Figure,
                        "test" => WorkloadScale::Test,
                        _ => return Err(format!("--scale expects figure or test, got {value}")),
                    }
                }
                "--work" => o.work = value.into(),
                "--out" => o.out = value.into(),
                "--reference" => o.reference = Some(value.into()),
                "--revision" => o.revision = value,
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        o.workload = workload.ok_or("--workload is required")?;
        o.seed = seed.ok_or("--seed is required")?;
        Ok(o)
    }
}

fn main() {
    let process_start = Instant::now();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before anything parallel runs: every thread in the process, inner
    // slice workers included, leases from at most `host_cores` tokens.
    budget::configure_total(host_cores);
    let opts = Opts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    std::process::exit(run(&opts, process_start, host_cores));
}

/// What must match across passes: the outcome digest everywhere, the
/// rendered tables on `sweeps`.
#[derive(Clone, Debug, PartialEq)]
struct Signature {
    digest: u64,
    tables: String,
}

impl Signature {
    fn of(p: &Pass) -> Signature {
        Signature {
            digest: p.digest,
            tables: p.tables.clone(),
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// Every pass of a run and the bookkeeping over them.
#[derive(Default)]
struct Runs {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Runs {
    /// Counts `pass`'s cells, failing all of them on a mismatch with
    /// `expected`, and hands the pass back if nothing failed.
    fn record(&mut self, label: &str, pass: Pass, expected: &Signature) -> Option<Pass> {
        let mut failed = pass.failed;
        let mut problems = pass.problems.clone();
        if Signature::of(&pass) != *expected {
            failed = pass.cells;
            problems.push(format!(
                "outputs differ from the expected {}",
                expected.hex()
            ));
        }
        self.attempted += pass.cells;
        self.failed += failed.min(pass.cells);
        self.problems
            .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        (failed == 0).then_some(pass)
    }
}

/// Runs `f`, turning a panic into a pass whose cells all failed.
fn guarded(cells: u64, f: impl FnOnce() -> Pass) -> Pass {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Pass {
        cells,
        failed: cells,
        problems: vec!["panicked".into()],
        ..Pass::default()
    })
}

fn run(opts: &Opts, process_start: Instant, host_cores: usize) -> i32 {
    let name = opts.workload.name();
    let check = match opts.reference.as_ref().map(|p| Reference::load(p, opts)) {
        None => Check::Unrecorded,
        Some(Ok(check)) => check,
        Some(Err(e)) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let work = opts.work.join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(&opts.out))
    {
        eprintln!(
            "perfbench: cannot create {} or {}: {e}",
            work.display(),
            opts.out.display()
        );
        return 2;
    }

    let mut setup_s = Vec::new();
    let mut bench = None;
    for i in 0..Bench::setups(opts.workload, opts.scale) {
        let started = Instant::now();
        bench = Some(Bench::setup(opts.workload, opts.scale, opts.seed, &work));
        // The first set-up also pays for process start.
        let since = if i == 0 { process_start } else { started };
        setup_s.push(since.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let cells = bench.cells_per_pass();
    println!("# plan cells_per_pass={cells}");

    let tracer = Tracer::default();
    let mut runs = Runs::default();
    let own = match &check {
        Check::Own(sig) => Some(sig.clone()),
        _ => None,
    };
    let mut expected = own.or_else(|| {
        bench.setup_digest().map(|digest| Signature {
            digest,
            tables: String::new(),
        })
    });
    let deadline = Duration::from_secs(opts.seconds);
    let measuring = Instant::now();
    for passes in 1.. {
        let pass = guarded(cells, || bench.run(None));
        let want = expected.get_or_insert_with(|| Signature::of(&pass)).clone();
        let cache_digest = pass.cache_digest;
        if let Some(pass) = runs.record("untraced", pass, &want) {
            runs.untraced.push(pass);
        }
        if opts.trace {
            let mut traced = guarded(cells, || bench.run(Some(&tracer)));
            if traced.cache_digest != cache_digest {
                traced.failed = traced.cells;
                traced
                    .problems
                    .push("result-cache totals differ from the untraced pass".into());
            }
            if let Some(traced) = runs.record("traced", traced, &want) {
                runs.traced.push(traced);
            }
        }
        println!("# done attempted={}", runs.attempted);
        let _ = std::io::stdout().flush();
        // Untraced runs make at least three passes, so the median of a
        // workload whose pass is a large share of the run has a middle.
        if measuring.elapsed() >= deadline && (opts.trace || passes >= MIN_PASSES) {
            break;
        }
    }
    // Read before the reference check, so the peak is the workload's own.
    let peak_rss_mb = peak_rss_mib();
    if let Check::At(key, want) = &check {
        // The run's own seed has no reference: check the same workload at
        // the reference key, untimed, so a change of simulated results
        // fails the run whatever its seed.
        let pass = guarded(cells, || {
            Bench::setup(key.workload, key.scale, key.seed, &work.join("check")).run(None)
        });
        runs.record(&format!("reference check ({key})"), pass, want);
        println!("# done attempted={}", runs.attempted);
    }
    let _ = std::fs::remove_dir_all(&work);
    for p in &runs.problems {
        eprintln!("perfbench: {p}");
    }

    let Some(first) = runs.untraced.first() else {
        print_result(&Json::obj(vec![]), &runs, opts, None);
        return 1;
    };
    let walls: Vec<f64> = runs.untraced.iter().map(|p| p.wall_s).collect();
    let metric = |v: f64, unit: &str| {
        Json::obj(vec![
            ("value", Json::Num(finite(v))),
            ("unit", Json::str(unit)),
        ])
    };
    let metrics: Vec<(&str, Json)> = if opts.trace {
        if runs.traced.is_empty() {
            print_result(&Json::obj(vec![]), &runs, opts, None);
            return 1;
        }
        let mut c = runs
            .traced
            .iter()
            .fold(Counters::default(), |a, p| add(a, p.counters));
        c.sim_accesses = tracer.sim_accesses();
        c.gen_accesses = tracer.gen_accesses();
        let spans = tracer.spans();
        let traced_walls: Vec<f64> = runs.traced.iter().map(|p| p.wall_s).collect();
        let mut m: Vec<(&str, Json)> = layers::derive(&spans, &tracer.sched_stats(), &c)
            .into_iter()
            .map(|(n, unit, v)| (n, metric(v, unit)))
            .collect();
        m.push((
            "trace.overhead_s",
            metric(median(&traced_walls) - median(&walls), "s"),
        ));
        m.push((
            "trace.spans",
            metric(spans.len() as f64 / c.passes.max(1) as f64, "count"),
        ));
        m.push((
            "outcome.gain_vs_shared_pct",
            metric(first.gain_vs_shared_pct, "%"),
        ));
        m.push((
            "outcome.gain_vs_equal_pct",
            metric(first.gain_vs_equal_pct, "%"),
        ));
        m.push((
            "outcome.failed_frac",
            metric(runs.failed as f64 / runs.attempted.max(1) as f64, "ratio"),
        ));
        if let Err(e) = write_spans(
            &opts
                .out
                .join(format!("spans-{name}-seed{}.jsonl", opts.seed)),
            &spans,
        ) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        m
    } else {
        let mips: Vec<f64> = runs
            .untraced
            .iter()
            .map(|p| p.instructions as f64 / p.wall_s / 1e6)
            .collect();
        vec![
            ("wall_s", metric(median(&walls), "s")),
            ("sim_mips", metric(median(&mips), "Minst/s")),
            ("setup_s", metric(median(&setup_s), "s")),
            ("peak_rss_mb", metric(peak_rss_mb, "MiB")),
            (
                "speedup_vs_shared",
                metric(1.0 + first.gain_vs_shared_pct / 100.0, "x"),
            ),
            (
                "speedup_vs_equal",
                metric(1.0 + first.gain_vs_equal_pct / 100.0, "x"),
            ),
            (
                "ok_frac",
                metric(
                    1.0 - runs.failed as f64 / runs.attempted.max(1) as f64,
                    "ratio",
                ),
            ),
        ]
    };

    let peak_threads = runs
        .untraced
        .iter()
        .chain(&runs.traced)
        .map(|p| p.peak_threads)
        .max()
        .unwrap_or(0);
    let provenance = Json::obj(vec![
        ("workload", Json::str(name)),
        ("seed", Json::str(opts.seed.to_string())),
        ("scale", Json::str(Key::of(opts).scale_name())),
        ("seconds", Json::u64(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("host_cores", Json::u64(host_cores as u64)),
        ("budget_total", Json::u64(budget::current().total() as u64)),
        ("peak_threads", Json::u64(peak_threads as u64)),
        ("revision", Json::str(&opts.revision)),
        ("profile", Json::str(PROFILE)),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
        ("passes", Json::u64(runs.untraced.len() as u64)),
        ("traced_passes", Json::u64(runs.traced.len() as u64)),
        (
            "setups",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("wall_s_p25", Json::Num(percentile(&walls, 25.0))),
        ("wall_s_p75", Json::Num(percentile(&walls, 75.0))),
        (
            "wall_s_samples",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("digest", Json::str(Signature::of(first).hex())),
        (
            "cache_digest",
            Json::str(format!("{:016x}", first.cache_digest)),
        ),
        ("gain_vs_shared_pct", Json::Num(first.gain_vs_shared_pct)),
        ("gain_vs_equal_pct", Json::Num(first.gain_vs_equal_pct)),
        (
            "reference",
            Json::str(match &check {
                Check::Own(_) => Key::of(opts).to_string(),
                Check::At(key, _) => key.to_string(),
                Check::Unrecorded => "none".into(),
            }),
        ),
        (
            "problems",
            Json::Arr(runs.problems.iter().map(Json::str).collect()),
        ),
    ]);
    let correct = print_result(&Json::obj(metrics), &runs, opts, Some(provenance));
    if opts.record_reference && correct {
        if let Some(path) = &opts.reference {
            if let Err(e) = Reference::store(path, opts, first) {
                eprintln!("perfbench: cannot record the reference: {e}");
                return 1;
            }
        }
    }
    if correct {
        0
    } else {
        1
    }
}

/// Prints the provenance line and the result line, writes both to the
/// output directory, and returns whether the run was correct.
fn print_result(metrics: &Json, runs: &Runs, opts: &Opts, provenance: Option<Json>) -> bool {
    let correct =
        runs.failed == 0 && !runs.untraced.is_empty() && (!opts.trace || !runs.traced.is_empty());
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(runs.attempted.max(1))),
        ("failed", Json::u64(runs.failed.max(u64::from(!correct)))),
        ("metrics", metrics.clone()),
    ]);
    let provenance = provenance.unwrap_or(Json::Null);
    println!("{}", Json::obj(vec![("provenance", provenance.clone())]));
    println!("{result}");
    let file = opts.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    let doc = Json::obj(vec![("provenance", provenance), ("result", result)]);
    if let Err(e) = std::fs::write(&file, format!("{doc}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    correct
}

fn add(a: Counters, b: Counters) -> Counters {
    Counters {
        passes: a.passes + b.passes,
        hits: a.hits + b.hits,
        disk_hits: a.disk_hits + b.disk_hits,
        simulations: a.simulations + b.simulations,
        generations: a.generations + b.generations,
        trace_hits: a.trace_hits + b.trace_hits,
        packed_bytes: a.packed_bytes + b.packed_bytes,
        l2_hits: a.l2_hits + b.l2_hits,
        l2_misses: a.l2_misses + b.l2_misses,
        sim_accesses: a.sim_accesses + b.sim_accesses,
        gen_accesses: a.gen_accesses + b.gen_accesses,
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.cell, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// What a reference entry is recorded for.
#[derive(Clone, Copy, Debug)]
struct Key {
    workload: Workload,
    scale: WorkloadScale,
    seed: u64,
}

impl Key {
    fn of(opts: &Opts) -> Key {
        Key {
            workload: opts.workload,
            scale: opts.scale,
            seed: opts.seed,
        }
    }

    /// The key a run whose own seed has no entry is checked at: the same
    /// workload at test scale and the product's default seed, so the check
    /// costs well under a second.
    fn check(workload: Workload) -> Key {
        Key {
            workload,
            scale: WorkloadScale::Test,
            seed: ExperimentConfig::quick().seed,
        }
    }

    fn scale_name(&self) -> &'static str {
        match self.scale {
            WorkloadScale::Test => "test",
            _ => "figure",
        }
    }

    fn matches(&self, entry: &Json) -> bool {
        entry.get("workload") == Some(&Json::str(self.workload.name()))
            && entry.get("scale") == Some(&Json::str(self.scale_name()))
            && entry.get("seed") == Some(&Json::str(self.seed.to_string()))
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (w, sc, se) = (self.workload.name(), self.scale_name(), self.seed);
        write!(f, "{w} at {sc} scale, seed {se}")
    }
}

/// What a run's outputs are checked against.
enum Check {
    /// Nothing recorded (no reference file, or a run recording its own
    /// entry): the passes must agree with each other.
    Unrecorded,
    /// The run's own key is recorded: every pass must match it.
    Own(Signature),
    /// Only the check key is recorded: the passes must agree with each
    /// other, and one more untimed pass at that key must match it.
    At(Key, Signature),
}

/// Reference outputs recorded per (workload, scale, seed).
struct Reference;

impl Reference {
    const SCHEMA: &'static str = "icp-perfbench-reference/v1";

    fn entries(path: &std::path::Path) -> Result<Vec<Json>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let doc =
            Json::parse(&text).ok_or_else(|| format!("{} is not valid JSON", path.display()))?;
        if doc.get("schema") != Some(&Json::str(Self::SCHEMA)) {
            return Err(format!("{} is not a {} file", path.display(), Self::SCHEMA));
        }
        match doc.get("entries") {
            Some(Json::Arr(entries)) => Ok(entries.clone()),
            _ => Err(format!("{} has no entries", path.display())),
        }
    }

    /// The recorded signature for `key`, if there is one.
    fn find(entries: &[Json], key: Key) -> Result<Option<Signature>, String> {
        let Some(entry) = entries.iter().find(|e| key.matches(e)) else {
            return Ok(None);
        };
        let text = |k: &str| match entry.get(k) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("reference entry for {key} lacks {k}")),
        };
        let digest = u64::from_str_radix(&text("digest")?, 16)
            .map_err(|e| format!("bad reference digest for {key}: {e}"))?;
        Ok(Some(Signature {
            digest,
            tables: text("tables")?,
        }))
    }

    /// How this run is checked. A run whose key has no entry needs the
    /// check key's entry, unless it records its own.
    fn load(path: &std::path::Path, opts: &Opts) -> Result<Check, String> {
        let entries = Self::entries(path)?;
        if let Some(own) = Self::find(&entries, Key::of(opts))? {
            return Ok(Check::Own(own));
        }
        if opts.record_reference {
            return Ok(Check::Unrecorded);
        }
        let key = Key::check(opts.workload);
        match Self::find(&entries, key)? {
            Some(sig) => Ok(Check::At(key, sig)),
            None => Err(format!(
                "{} has no entry for {key}; record one with --record-reference",
                path.display()
            )),
        }
    }

    /// Replaces this run's entry with `pass`'s outputs.
    fn store(path: &std::path::Path, opts: &Opts, pass: &Pass) -> Result<(), String> {
        let key = Key::of(opts);
        let mut entries: Vec<Json> = Self::entries(path)?
            .into_iter()
            .filter(|e| !key.matches(e))
            .collect();
        entries.push(Json::obj(vec![
            ("workload", Json::str(opts.workload.name())),
            ("scale", Json::str(key.scale_name())),
            ("seed", Json::str(opts.seed.to_string())),
            ("digest", Json::str(Signature::of(pass).hex())),
            ("gain_vs_shared_pct", Json::Num(pass.gain_vs_shared_pct)),
            ("gain_vs_equal_pct", Json::Num(pass.gain_vs_equal_pct)),
            ("tables", Json::str(&pass.tables)),
        ]));
        let body: Vec<String> = entries.iter().map(|e| format!("  {e}")).collect();
        let doc = format!(
            "{{\"schema\": \"{}\", \"entries\": [\n{}\n]}}\n",
            Self::SCHEMA,
            body.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
