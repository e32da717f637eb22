//! Per-layer metrics derived from the spans of a traced run.
//!
//! Sums and counts are reported per traced pass (divided by the number of
//! passes); percentiles pool every sample of the run. A layer's self time
//! is its span's duration minus the time its child spans cover.

use std::collections::HashMap;

use icp_experiments::sched::SchedStats;

use crate::stats::percentile;
use crate::trace::Span;

/// Counters a traced run reads from the caches and outcomes, summed over
/// its traced passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Traced passes the counters cover.
    pub passes: u64,
    /// `ResultCache::hits` summed over passes.
    pub hits: u64,
    /// `ResultCache::disk_hits` summed over passes.
    pub disk_hits: u64,
    /// `ResultCache::simulations` summed over passes.
    pub simulations: u64,
    /// `TraceCache::generations` summed over passes.
    pub generations: u64,
    /// `TraceCache::hits` summed over passes.
    pub trace_hits: u64,
    /// `TraceCache::packed_bytes` at the end of each pass, summed.
    pub packed_bytes: u64,
    /// L2 hits over every outcome of every pass.
    pub l2_hits: u64,
    /// L2 misses over every outcome of every pass.
    pub l2_misses: u64,
    /// Accesses replayed by the cells that simulated.
    pub sim_accesses: u64,
    /// Accesses replayed by the cells that generated their workload.
    pub gen_accesses: u64,
}

/// Every per-layer metric: name, unit, and the value for one traced run.
pub fn derive(
    spans: &[Span],
    sched: &[SchedStats],
    c: &Counters,
) -> Vec<(&'static str, &'static str, f64)> {
    let passes = c.passes.max(1) as f64;
    let per_pass = |x: f64| x / passes;
    let secs = |ns: u64| ns as f64 / 1e9;

    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let total = |name: &'static str| named(name).map(Span::dur_ns).sum::<u64>();
    let count = |name: &'static str| named(name).count() as f64;
    let self_ns = |name: &'static str| {
        named(name)
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .sum::<u64>()
    };
    let micros = |name: &'static str| {
        named(name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect::<Vec<_>>()
    };
    // Lookups that ran the simulate closure; the others were served.
    let simulated: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "simulate")
        .map(|s| s.parent)
        .collect();
    let serve_us: Vec<f64> = named("result_cache.get_or_run")
        .filter(|s| !simulated.contains(&s.id))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();

    let jobs: usize = sched.iter().map(|s| s.jobs).sum();
    let capacity: f64 = sched
        .iter()
        .map(|s| s.elapsed_secs * s.workers as f64)
        .sum();
    let busy: f64 = sched
        .iter()
        .map(|s| s.utilization * s.elapsed_secs * s.workers as f64)
        .sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let lookups = count("result_cache.get_or_run");
    let interval_s = secs(total("machine.run_interval"));
    let gen_s = secs(total("trace_cache.generate"));
    vec![
        ("sched.jobs", "count", per_pass(jobs as f64)),
        (
            "sched.workers",
            "count",
            sched.iter().map(|s| s.workers).max().unwrap_or(0) as f64,
        ),
        ("sched.utilization", "ratio", ratio(busy, capacity)),
        ("sched.idle_s", "s", per_pass(capacity - busy)),
        (
            "sched.peak_threads",
            "count",
            sched.iter().map(|s| s.peak_threads).max().unwrap_or(0) as f64,
        ),
        ("result_cache.lookups", "count", per_pass(lookups)),
        ("result_cache.hits", "count", per_pass(c.hits as f64)),
        (
            "result_cache.disk_hits",
            "count",
            per_pass(c.disk_hits as f64),
        ),
        (
            "result_cache.simulations",
            "count",
            per_pass(c.simulations as f64),
        ),
        (
            "result_cache.hit_ratio",
            "ratio",
            ratio(c.hits as f64, lookups),
        ),
        (
            "result_cache.key_s",
            "s",
            per_pass(secs(total("result_cache.key"))),
        ),
        (
            "result_cache.overhead_s",
            "s",
            per_pass(secs(self_ns("result_cache.get_or_run"))),
        ),
        (
            "result_cache.serve_us_p50",
            "us",
            percentile(&serve_us, 50.0),
        ),
        (
            "result_cache.serve_us_p99",
            "us",
            percentile(&serve_us, 99.0),
        ),
        (
            "trace_cache.generations",
            "count",
            per_pass(c.generations as f64),
        ),
        ("trace_cache.hits", "count", per_pass(c.trace_hits as f64)),
        ("trace_cache.gen_s", "s", per_pass(gen_s)),
        (
            "trace_cache.wait_s",
            "s",
            per_pass(secs(total("trace_cache.reuse"))),
        ),
        (
            "trace_cache.packed_mb",
            "MiB",
            per_pass(c.packed_bytes as f64 / (1024.0 * 1024.0)),
        ),
        (
            "trace_cache.gen_maccesses_per_s",
            "Macc/s",
            ratio(c.gen_accesses as f64 / 1e6, gen_s),
        ),
        (
            "machine.build_s",
            "s",
            per_pass(secs(total("machine.build"))),
        ),
        (
            "machine.intervals",
            "count",
            per_pass(count("machine.run_interval")),
        ),
        ("machine.interval_s", "s", per_pass(interval_s)),
        (
            "machine.interval_us_p50",
            "us",
            percentile(&micros("machine.run_interval"), 50.0),
        ),
        (
            "machine.interval_us_p99",
            "us",
            percentile(&micros("machine.run_interval"), 99.0),
        ),
        (
            "machine.maccesses_per_s",
            "Macc/s",
            ratio(c.sim_accesses as f64 / 1e6, interval_s),
        ),
        (
            "machine.umon_export_s",
            "s",
            per_pass(secs(total("machine.umon_view"))),
        ),
        (
            "machine.apply_s",
            "s",
            per_pass(secs(total("machine.apply"))),
        ),
        (
            "machine.l2_miss_ratio",
            "ratio",
            ratio(c.l2_misses as f64, (c.l2_hits + c.l2_misses) as f64),
        ),
        (
            "policy.decisions",
            "count",
            per_pass(count("policy.repartition")),
        ),
        (
            "policy.decide_s",
            "s",
            per_pass(secs(total("policy.repartition"))),
        ),
        (
            "policy.decide_us_p50",
            "us",
            percentile(&micros("policy.repartition"), 50.0),
        ),
        (
            "policy.decide_us_p99",
            "us",
            percentile(&micros("policy.repartition"), 99.0),
        ),
        (
            "policy.observe_s",
            "s",
            per_pass(secs(total("policy.observe_umon"))),
        ),
        (
            "runtime.self_s",
            "s",
            per_pass(secs(self_ns("runtime.execute"))),
        ),
    ]
}
