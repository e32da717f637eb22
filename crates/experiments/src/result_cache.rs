//! Content-addressed cache of full simulation *results*.
//!
//! [`crate::trace_cache::TraceCache`] memoises workload generation; this
//! module applies the same pattern one layer up, to the simulations
//! themselves. A [`ResultCache`] is keyed on every input that shapes an
//! [`ExecutionOutcome`] — the normalised benchmark spec, the whole
//! simulated-system configuration (geometry, latencies, cores, interval),
//! the workload scale, the master seed, replacement/enforcement kinds, the
//! scheme, and whether the run carried a profiling utility monitor. A
//! figures or sweeps rerun with a warm cache therefore performs zero full
//! simulations for unchanged points, and a policy-only change re-simulates
//! nothing but the changed scheme's points.
//!
//! Entries can optionally persist under a directory (`results/cache/` by
//! convention) as one versioned-JSON file per outcome, so warmth survives
//! process restarts. Files are named `<scheme>-<fnv64(key)>.json` and carry
//! the full key: collisions and stale schema versions are detected on load
//! and treated as misses. Wipe the directory (or a single scheme's
//! `<scheme>-*.json` glob) to invalidate.
//!
//! Determinism contract: the simulator is bit-deterministic, so a cached
//! outcome is byte-identical to the simulation it replaces (`f64` values
//! round-trip exactly through the shortest-representation JSON writer).
//! The entry map is single-flight (`SingleFlight`, a `BTreeMap`
//! underneath) — iteration order (e.g. [`ResultCache::totals`]) is key
//! order, never hash order.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icp_cmp_sim::stats::{InteractionStats, ThreadCounters};
use icp_cmp_sim::UmonProfile;
use icp_core::{ExecutionOutcome, IntervalRecord};
use icp_hot_path::deterministic;
use icp_workloads::BenchmarkSpec;

use crate::json::Json;
use crate::runner::{ExperimentConfig, Scheme};
use crate::single_flight::SingleFlight;

/// Schema tag of the persisted entry files; bump when the outcome layout
/// changes so stale files invalidate themselves.
const SCHEMA: &str = "icp-result-cache/v1";

/// Aggregate counters over every cached outcome, folded in key order: the
/// scale of a cached matrix plus a machine-independent behavioural digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Demand accesses (L1 hits + misses) across all cached runs.
    pub accesses: u64,
    /// Instructions retired across all cached runs.
    pub instructions: u64,
    /// Simulated wall cycles summed over cached runs.
    pub sim_cycles: u64,
    /// Order-fixed fold of per-run digests: each run folds its wall cycles
    /// with every thread's active cycles and L2 hits and misses (the fold
    /// `SuiteData::digest` uses too).
    pub digest: u64,
}

/// A thread-safe simulate-once store of execution outcomes, optionally
/// persisted to disk.
///
/// Counters mirror [`crate::trace_cache::TraceCache`]: `simulations()`
/// counts cache misses that ran the simulator, `hits()` counts runs served
/// from memory or disk (including requests that waited for a concurrent
/// requester's simulation), so "zero simulations on a warm rerun" is a
/// testable property.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: SingleFlight<Arc<ExecutionOutcome>>,
    dir: Option<PathBuf>,
    simulations: AtomicU64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
}

impl ResultCache {
    /// Creates an empty in-memory cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Creates an empty in-memory cache ready for sharing across runs.
    pub fn shared() -> Arc<Self> {
        Arc::new(ResultCache::new())
    }

    /// Creates a cache persisted under `dir` (created on first store).
    /// Disk entries found under `dir` count as hits; unreadable, stale or
    /// colliding files are ignored.
    pub fn persistent(dir: impl Into<PathBuf>) -> Arc<Self> {
        Arc::new(ResultCache { dir: Some(dir.into()), ..ResultCache::default() })
    }

    /// The content address of one simulation.
    ///
    /// `spec` must already be normalised to the configured core count (the
    /// runner resolves `with_threads` before keying). The whole
    /// [`icp_cmp_sim::SystemConfig`] participates via `Debug` — geometry,
    /// way/set counts, latencies, cores, interval length, feature knobs —
    /// so any single-field perturbation changes the key. `Debug` for `f64`
    /// prints the shortest round-trip representation, so distinct values
    /// never alias.
    #[deterministic]
    pub fn key(spec: &BenchmarkSpec, cfg: &ExperimentConfig, scheme: &Scheme, umon: bool) -> String {
        format!(
            "{spec:?}|sys={:?}|scale={:?}|seed={:#x}|repl={:?}|enf={:?}|scheme={scheme:?}|umon={}",
            cfg.system, cfg.scale, cfg.seed, cfg.replacement, cfg.enforcement, u8::from(umon)
        )
    }

    /// Returns the outcome for `key`, running `simulate` on a miss.
    ///
    /// The entry map is single-flight: the first requester of a key claims
    /// it and checks disk (when persistent), then simulates, both *outside*
    /// the lock, so parallel runs with distinct keys never serialise.
    /// Requests for the same key can arrive concurrently (a sweep plan runs
    /// the interval axis's hoisted baselines at every point in one
    /// scheduler map); they wait for the claimant's outcome and count as
    /// hits, so each key is simulated at most once.
    pub fn get_or_run(
        &self,
        key: String,
        scheme_name: &'static str,
        simulate: impl FnOnce() -> ExecutionOutcome,
    ) -> ExecutionOutcome {
        let (out, hit) = self.entries.get_or_compute(key, |key| {
            if let Some(out) = self.load(key, scheme_name) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::new(out);
            }
            let out = simulate();
            self.simulations.fetch_add(1, Ordering::Relaxed);
            self.store(key, &out);
            Arc::new(out)
        });
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        ExecutionOutcome::clone(&out)
    }

    /// Number of simulations executed (cache misses).
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Number of runs served from cache (memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of runs served from persisted files specifically.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of cached outcomes (in memory; simulations in flight don't
    /// count until published).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters over the cached outcomes, folded in key order.
    pub fn totals(&self) -> CacheTotals {
        // ORDER: folded in key order over ready entries — deterministic by
        // contract.
        self.entries.fold(CacheTotals::default(), |mut t, out| {
            let mut acc = out.wall_cycles;
            for c in &out.thread_totals {
                t.accesses += c.l1_hits + c.l1_misses;
                t.instructions += c.instructions;
                acc = acc.wrapping_mul(1_000_003).wrapping_add(
                    c.active_cycles
                        .wrapping_mul(31)
                        .wrapping_add(c.l2_misses)
                        .wrapping_add(c.l2_hits.wrapping_mul(7)),
                );
            }
            t.sim_cycles += out.wall_cycles;
            t.digest = t.digest.wrapping_mul(1_000_003).wrapping_add(acc);
            t
        })
    }

    /// The file a key persists under: scheme-prefixed so one scheme's
    /// entries can be invalidated with a glob, FNV-64 hashed so the long
    /// key fits a file name.
    fn entry_path(dir: &Path, key: &str, scheme_name: &str) -> PathBuf {
        dir.join(format!("{scheme_name}-{:016x}.json", fnv1a64(key.as_bytes())))
    }

    fn load(&self, key: &str, scheme_name: &'static str) -> Option<ExecutionOutcome> {
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(Self::entry_path(dir, key, scheme_name)).ok()?;
        let doc = Json::parse(&text)?;
        if doc.get("schema").and_then(as_str) != Some(SCHEMA) {
            return None;
        }
        // Full-key verification: an FNV collision or a stale file for a
        // different configuration reads as a miss, never a wrong result.
        if doc.get("key").and_then(as_str) != Some(key) {
            return None;
        }
        outcome_from_json(doc.get("outcome")?, scheme_name)
    }

    fn store(&self, key: &str, out: &ExecutionOutcome) {
        let Some(dir) = self.dir.as_ref() else { return };
        // Best effort: a read-only results tree degrades to in-memory
        // caching rather than failing the run.
        let _ = std::fs::create_dir_all(dir);
        let doc = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("key", Json::str(key)),
            ("outcome", outcome_to_json(out)),
        ]);
        let path = Self::entry_path(dir, key, out.scheme);
        let tmp = path.with_extension("json.tmp");
        if std::fs::write(&tmp, doc.to_string()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// 64-bit FNV-1a over the key bytes (file-name hashing only; correctness
/// never depends on it because the full key is verified on load).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn as_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn as_u64(j: &Json) -> Option<u64> {
    let n = j.as_f64()?;
    if n >= 0.0 && n.fract() == 0.0 && n < 9e15 {
        Some(n as u64)
    } else {
        None
    }
}

fn u64_arr(vals: &[u64]) -> Json {
    Json::Arr(vals.iter().map(|&v| Json::u64(v)).collect())
}

fn f64_arr(vals: &[f64]) -> Json {
    Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect())
}

fn get_u64_vec(j: &Json, key: &str) -> Option<Vec<u64>> {
    match j.get(key)? {
        Json::Arr(items) => items.iter().map(as_u64).collect(),
        _ => None,
    }
}

fn get_f64_vec(j: &Json, key: &str) -> Option<Vec<f64>> {
    match j.get(key)? {
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    as_u64(j.get(key)?)
}

/// Complete, lossless serialisation of an outcome.
fn outcome_to_json(out: &ExecutionOutcome) -> Json {
    let totals: Vec<Json> = out.thread_totals.iter().map(counters_to_json).collect();
    let records: Vec<Json> = out.records.iter().map(record_to_json).collect();
    let umon = match &out.umon_profile {
        Some(p) => Json::obj(vec![
            ("ways", Json::u64(p.ways as u64)),
            ("sampled_sets", Json::u64(p.sampled_sets)),
            ("total_sets", Json::u64(p.total_sets)),
            ("atd_misses", u64_arr(&p.atd_misses)),
            ("way_hits", Json::Arr(p.way_hits.iter().map(|h| u64_arr(h)).collect())),
        ]),
        None => Json::Null,
    };
    Json::obj(vec![
        ("scheme", Json::str(out.scheme)),
        ("wall_cycles", Json::u64(out.wall_cycles)),
        ("decision_count", Json::u64(out.decision_count)),
        ("decision_nanos", Json::u64(out.decision_nanos)),
        (
            "interactions",
            Json::obj(vec![
                ("total_accesses", Json::u64(out.interactions.total_accesses)),
                ("inter_thread_hits", Json::u64(out.interactions.inter_thread_hits)),
                ("inter_thread_evictions", Json::u64(out.interactions.inter_thread_evictions)),
            ]),
        ),
        ("thread_totals", Json::Arr(totals)),
        ("records", Json::Arr(records)),
        ("umon_profile", umon),
    ])
}

fn counters_to_json(c: &ThreadCounters) -> Json {
    Json::obj(vec![
        ("instructions", Json::u64(c.instructions)),
        ("active_cycles", Json::u64(c.active_cycles)),
        ("barrier_stall_cycles", Json::u64(c.barrier_stall_cycles)),
        ("l1_hits", Json::u64(c.l1_hits)),
        ("l1_misses", Json::u64(c.l1_misses)),
        ("l2_hits", Json::u64(c.l2_hits)),
        ("l2_misses", Json::u64(c.l2_misses)),
        ("l1_writebacks", Json::u64(c.l1_writebacks)),
        ("l2_writebacks", Json::u64(c.l2_writebacks)),
        ("coherence_invalidations", Json::u64(c.coherence_invalidations)),
        ("prefetch_fills", Json::u64(c.prefetch_fills)),
        ("prefetch_hits", Json::u64(c.prefetch_hits)),
        ("victim_hits", Json::u64(c.victim_hits)),
    ])
}

fn record_to_json(r: &IntervalRecord) -> Json {
    Json::obj(vec![
        ("index", Json::u64(r.index as u64)),
        ("ways", u64_arr(&r.ways.iter().map(|&w| w as u64).collect::<Vec<_>>())),
        ("cpi", f64_arr(&r.cpi)),
        ("l2_misses", u64_arr(&r.l2_misses)),
        ("instructions", u64_arr(&r.instructions)),
        ("overall_cpi", Json::Num(r.overall_cpi)),
        ("wall_cycles", Json::u64(r.wall_cycles)),
    ])
}

fn counters_from_json(j: &Json) -> Option<ThreadCounters> {
    Some(ThreadCounters {
        instructions: get_u64(j, "instructions")?,
        active_cycles: get_u64(j, "active_cycles")?,
        barrier_stall_cycles: get_u64(j, "barrier_stall_cycles")?,
        l1_hits: get_u64(j, "l1_hits")?,
        l1_misses: get_u64(j, "l1_misses")?,
        l2_hits: get_u64(j, "l2_hits")?,
        l2_misses: get_u64(j, "l2_misses")?,
        l1_writebacks: get_u64(j, "l1_writebacks")?,
        l2_writebacks: get_u64(j, "l2_writebacks")?,
        coherence_invalidations: get_u64(j, "coherence_invalidations")?,
        prefetch_fills: get_u64(j, "prefetch_fills")?,
        prefetch_hits: get_u64(j, "prefetch_hits")?,
        victim_hits: get_u64(j, "victim_hits")?,
    })
}

fn record_from_json(j: &Json) -> Option<IntervalRecord> {
    Some(IntervalRecord {
        index: get_u64(j, "index")? as usize,
        ways: get_u64_vec(j, "ways")?.into_iter().map(|w| w as u32).collect(),
        cpi: get_f64_vec(j, "cpi")?,
        l2_misses: get_u64_vec(j, "l2_misses")?,
        instructions: get_u64_vec(j, "instructions")?,
        overall_cpi: j.get("overall_cpi").and_then(Json::as_f64)?,
        wall_cycles: get_u64(j, "wall_cycles")?,
    })
}

fn umon_from_json(j: &Json) -> Option<UmonProfile> {
    let way_hits = match j.get("way_hits")? {
        Json::Arr(items) => items
            .iter()
            .map(|h| match h {
                Json::Arr(vals) => vals.iter().map(as_u64).collect(),
                _ => None,
            })
            .collect::<Option<Vec<Vec<u64>>>>()?,
        _ => return None,
    };
    Some(UmonProfile {
        ways: get_u64(j, "ways")? as u32,
        sampled_sets: get_u64(j, "sampled_sets")?,
        total_sets: get_u64(j, "total_sets")?,
        way_hits,
        atd_misses: get_u64_vec(j, "atd_misses")?,
    })
}

fn outcome_from_json(j: &Json, scheme_name: &'static str) -> Option<ExecutionOutcome> {
    if j.get("scheme").and_then(as_str) != Some(scheme_name) {
        return None;
    }
    let inter = j.get("interactions")?;
    let totals = match j.get("thread_totals")? {
        Json::Arr(items) => items.iter().map(counters_from_json).collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let records = match j.get("records")? {
        Json::Arr(items) => items.iter().map(record_from_json).collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let umon_profile = match j.get("umon_profile")? {
        Json::Null => None,
        p => Some(umon_from_json(p)?),
    };
    Some(ExecutionOutcome {
        scheme: scheme_name,
        wall_cycles: get_u64(j, "wall_cycles")?,
        records,
        thread_totals: totals,
        interactions: InteractionStats {
            total_accesses: get_u64(inter, "total_accesses")?,
            inter_thread_hits: get_u64(inter, "inter_thread_hits")?,
            inter_thread_evictions: get_u64(inter, "inter_thread_evictions")?,
        },
        decision_count: get_u64(j, "decision_count")?,
        decision_nanos: get_u64(j, "decision_nanos")?,
        umon_profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::context::SuiteData;
    use icp_workloads::suite;

    fn outcomes_equal(a: &ExecutionOutcome, b: &ExecutionOutcome) -> bool {
        a.scheme == b.scheme
            && a.wall_cycles == b.wall_cycles
            && a.thread_totals == b.thread_totals
            && a.interactions == b.interactions
            && a.decision_count == b.decision_count
            && a.decision_nanos == b.decision_nanos
            && a.umon_profile == b.umon_profile
            && a.records.len() == b.records.len()
            && a.records.iter().zip(&b.records).all(|(x, y)| {
                x.index == y.index
                    && x.ways == y.ways
                    && x.cpi == y.cpi
                    && x.l2_misses == y.l2_misses
                    && x.instructions == y.instructions
                    && x.overall_cpi == y.overall_cpi
                    && x.wall_cycles == y.wall_cycles
            })
    }

    #[test]
    fn any_single_field_key_perturbation_misses() {
        // The keying property test: perturb each key ingredient in turn
        // and require a distinct content address.
        let base_cfg = ExperimentConfig::test();
        let spec = suite::cg().with_threads(base_cfg.system.cores);
        let base = ResultCache::key(&spec, &base_cfg, &Scheme::ModelBased, false);

        let mut keys = vec![base.clone()];
        let mut push = |cfg: &ExperimentConfig, scheme: &Scheme, umon: bool| {
            keys.push(ResultCache::key(&spec, cfg, scheme, umon));
        };

        let mut seed = base_cfg.clone();
        seed.seed ^= 1;
        push(&seed, &Scheme::ModelBased, false); // seed

        let mut ways = base_cfg.clone();
        ways.system.l2 = icp_cmp_sim::CacheConfig::new(
            ways.system.l2.size_bytes * 2,
            ways.system.l2.ways * 2,
            ways.system.l2.line_bytes,
        );
        push(&ways, &Scheme::ModelBased, false); // ways

        let mut sets = base_cfg.clone();
        sets.system.l2 =
            icp_cmp_sim::CacheConfig::new(sets.system.l2.size_bytes * 2, sets.system.l2.ways, sets.system.l2.line_bytes);
        push(&sets, &Scheme::ModelBased, false); // sets (capacity at fixed ways)

        push(&base_cfg, &Scheme::Shared, false); // scheme
        push(&base_cfg, &Scheme::StaticCustom(vec![1; 4]), false); // scheme payload

        let mut interval = base_cfg.clone();
        interval.system.interval_instructions += 1;
        push(&interval, &Scheme::ModelBased, false); // interval

        let mut scale = base_cfg.clone();
        scale.scale = icp_workloads::WorkloadScale::Figure;
        push(&scale, &Scheme::ModelBased, false); // scale

        push(&base_cfg, &Scheme::ModelBased, true); // profiling umon

        let mut repl = base_cfg.clone();
        repl.replacement = icp_cmp_sim::ReplacementKind::TreePlru;
        push(&repl, &Scheme::ModelBased, false); // replacement

        let mut sliced = base_cfg.clone();
        sliced.system.llc = icp_cmp_sim::LlcConfig::sliced(4);
        push(&sliced, &Scheme::ModelBased, false); // LLC slice count

        push(&base_cfg, &Scheme::HierarchicalLookahead(2), false); // cluster topology
        push(&base_cfg, &Scheme::HierarchicalLookahead(4), false); // cluster count payload

        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "keys {i} and {j} alias");
            }
        }
    }

    #[test]
    fn cached_rerun_is_identical_and_simulates_nothing() {
        let cache = ResultCache::shared();
        let cfg = ExperimentConfig::test().with_result_cache(Arc::clone(&cache));
        let bench = suite::ft();
        let cold = cfg.run(&bench, &Scheme::ModelBased);
        assert_eq!(cache.simulations(), 1);
        assert_eq!(cache.hits(), 0);
        let warm = cfg.run(&bench, &Scheme::ModelBased);
        assert_eq!(cache.simulations(), 1, "warm run must not simulate");
        assert_eq!(cache.hits(), 1);
        assert!(outcomes_equal(&cold, &warm));
        // A different scheme is a different key: one more simulation.
        let _ = cfg.run(&bench, &Scheme::Shared);
        assert_eq!(cache.simulations(), 2);
    }

    #[test]
    fn warm_figures_rerun_reports_zero_simulations_and_identical_tables() {
        // The tentpole acceptance test: collect the whole figures matrix
        // twice against one result cache — the second pass simulates
        // nothing and renders byte-identical tables.
        let cache = ResultCache::shared();
        let cfg = ExperimentConfig::test().with_result_cache(Arc::clone(&cache));
        let cold = SuiteData::collect(&cfg);
        let cold_sims = cache.simulations();
        assert_eq!(cold_sims, 36, "9 benchmarks x 4 schemes");
        let cold_tables = [
            crate::figures::fig19_vs_private(&cold).render(),
            crate::figures::fig20_vs_shared(&cold).render(),
            crate::figures::fig21_vs_throughput(&cold).render(),
        ];
        let warm = SuiteData::collect(&cfg);
        assert_eq!(cache.simulations(), cold_sims, "warm rerun must simulate nothing");
        assert_eq!(cache.hits(), 36);
        let warm_tables = [
            crate::figures::fig19_vs_private(&warm).render(),
            crate::figures::fig20_vs_shared(&warm).render(),
            crate::figures::fig21_vs_throughput(&warm).render(),
        ];
        assert_eq!(cold_tables, warm_tables);
        assert_eq!(warm.digest(), cold.digest());
    }

    #[test]
    fn persisted_entries_survive_a_fresh_cache() {
        // Disk round-trip: a brand-new cache over the same directory serves
        // the outcome from its file, byte-identically, without simulating.
        let dir = std::env::temp_dir().join(format!("icp-result-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = suite::swim();
        let cold_cache = ResultCache::persistent(&dir);
        let cfg = ExperimentConfig::test().with_result_cache(Arc::clone(&cold_cache));
        let cold = cfg.run(&bench, &Scheme::ModelBased);
        let profiled_cold = cfg.run_profiled(&bench, &Scheme::StaticEqual);
        assert_eq!(cold_cache.simulations(), 2);

        let warm_cache = ResultCache::persistent(&dir);
        let cfg = ExperimentConfig::test().with_result_cache(Arc::clone(&warm_cache));
        let warm = cfg.run(&bench, &Scheme::ModelBased);
        let profiled_warm = cfg.run_profiled(&bench, &Scheme::StaticEqual);
        assert_eq!(warm_cache.simulations(), 0, "all entries must load from disk");
        assert_eq!(warm_cache.disk_hits(), 2);
        assert!(outcomes_equal(&cold, &warm));
        assert!(outcomes_equal(&profiled_cold, &profiled_warm));
        assert!(profiled_warm.umon_profile.is_some(), "profile survives the round-trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_too_deep_persisted_entry_is_a_miss() {
        // A corrupt entry file nested a million levels deep must read as a
        // miss (and be overwritten by the fresh simulation), not abort the
        // process.
        let dir =
            std::env::temp_dir().join(format!("icp-result-cache-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let cfg = ExperimentConfig::test();
        let bench = suite::swim();
        let key = ResultCache::key(&bench, &cfg, &Scheme::Shared, false);
        let path = ResultCache::entry_path(&dir, &key, "shared");
        std::fs::write(&path, "[".repeat(1_000_000)).expect("entry written");
        let cache = ResultCache::persistent(&dir);
        let out = cache.get_or_run(key, "shared", || cfg.run(&bench, &Scheme::Shared));
        assert_eq!((cache.simulations(), cache.disk_hits()), (1, 0), "a miss, not a hit");
        assert_eq!(out.wall_cycles, cfg.run(&bench, &Scheme::Shared).wall_cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_requests_for_one_key_simulate_once() {
        let cache = ResultCache::new();
        let cfg = ExperimentConfig::test();
        let bench = suite::ft();
        let key = ResultCache::key(&bench, &cfg, &Scheme::Shared, false);
        let calls = AtomicU64::new(0);
        let start = std::sync::Barrier::new(2);
        let request = || {
            start.wait();
            cache.get_or_run(key.clone(), "shared", || {
                calls.fetch_add(1, Ordering::SeqCst);
                cfg.run(&bench, &Scheme::Shared)
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(request);
            let mine = request();
            (mine, other.join().expect("requester thread"))
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one simulation for one key");
        assert_eq!((cache.simulations(), cache.hits()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(outcomes_equal(&a, &b), "both requesters get the same outcome");
    }

    #[test]
    fn a_panicking_simulation_hands_the_claim_to_a_waiter() {
        // The claimant holds the key until a second requester has parked
        // on it, then panics mid-simulation. The waiter must wake, claim
        // the key itself and finish.
        let cache = ResultCache::new();
        let cfg = ExperimentConfig::test();
        let bench = suite::ft();
        let key = ResultCache::key(&bench, &cfg, &Scheme::Shared, false);
        let parked = || cache.entries.parked.load(Ordering::SeqCst);
        let claimed = std::sync::Barrier::new(2);
        let (failed, served) = std::thread::scope(|s| {
            let claimant = s.spawn(|| {
                cache.get_or_run(key.clone(), "shared", || {
                    claimed.wait();
                    // Bounded, so a cache that never parks fails the
                    // assertion below instead of hanging.
                    let start = std::time::Instant::now();
                    while parked() == 0 && start.elapsed().as_secs() < 10 {
                        std::thread::yield_now();
                    }
                    panic!("simulation failed");
                })
            });
            claimed.wait();
            let waiter = s.spawn(|| {
                cache.get_or_run(key.clone(), "shared", || cfg.run(&bench, &Scheme::Shared))
            });
            (claimant.join().is_err(), waiter.join().expect("waiter finishes"))
        });
        assert!(failed, "the claimant's panic reaches its caller");
        assert_eq!(parked(), 1, "the waiter parked on the pending claim");
        assert_eq!(served.wall_cycles, cfg.run(&bench, &Scheme::Shared).wall_cycles);
        assert_eq!((cache.simulations(), cache.hits()), (1, 0), "the waiter simulated");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn totals_accumulate_in_key_order() {
        let cache = ResultCache::shared();
        let cfg = ExperimentConfig::test().with_result_cache(Arc::clone(&cache));
        assert_eq!(cache.totals(), CacheTotals::default());
        let out = cfg.run(&suite::cg(), &Scheme::Shared);
        let t = cache.totals();
        assert_eq!(t.sim_cycles, out.wall_cycles);
        assert_eq!(
            t.accesses,
            out.thread_totals.iter().map(|c| c.l1_hits + c.l1_misses).sum::<u64>()
        );
        assert!(t.digest != 0);
        // A second entry changes the totals deterministically.
        let _ = cfg.run(&suite::cg(), &Scheme::StaticEqual);
        let t2 = cache.totals();
        assert!(t2.sim_cycles > t.sim_cycles);
        assert_ne!(t2.digest, t.digest);
    }
}
