//! Cross-crate determinism guarantees: a run is a pure function of
//! (config, spec, scheme, seed).
//!
//! The matrix tests below are the static analyzer's runtime counterpart:
//! `icp-lint`'s D-rules prove the `#[deterministic]` closure avoids
//! nondeterminism sources; this suite pins the digests those rules
//! protect, across every delivery path a stream can take into the sliced
//! LLC and every core budget it can run under. The `pinned_*` tests go one
//! step further and fix the digests themselves: a change that is meant to
//! leave simulator behaviour alone must leave every constant below alone.

use std::sync::Arc;

use icp::experiments::sweeps::{self, SweepMode};
use icp::experiments::table::Table;
use icp::experiments::{ExperimentConfig, ResultCache, Scheme, TraceCache};
use icp::sim::budget::{self, CoreBudget};
use icp::sim::config::LlcConfig;
use icp::sim::l2::equal_split;
use icp::sim::slice::Llc;
use icp::sim::stream::{AccessStream, ReplayStream};
use icp::sim::{
    CacheConfig, GlobalStats, Machine, Measurable, PackedTrace, Simulator, SystemConfig,
    ThreadEvent,
};
use icp::workloads::{suite, BenchmarkSpec, SyntheticStream, WorkloadBuilder, WorkloadScale};

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Shared,
        Scheme::StaticEqual,
        Scheme::CpiProportional,
        Scheme::ModelBased,
        Scheme::UcpThroughput,
        Scheme::ModelThroughput,
        Scheme::Fairness,
    ]
}

#[test]
fn identical_runs_are_bit_identical() {
    let cfg = ExperimentConfig::test();
    let bench = suite::cg();
    for scheme in all_schemes() {
        let a = cfg.run(&bench, &scheme);
        let b = cfg.run(&bench, &scheme);
        assert_eq!(a.wall_cycles, b.wall_cycles, "{scheme:?}");
        assert_eq!(a.records.len(), b.records.len(), "{scheme:?}");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.ways, rb.ways, "{scheme:?} interval {}", ra.index);
            assert_eq!(ra.l2_misses, rb.l2_misses, "{scheme:?} interval {}", ra.index);
            assert_eq!(ra.instructions, rb.instructions, "{scheme:?} interval {}", ra.index);
        }
        assert_eq!(a.interactions, b.interactions, "{scheme:?}");
    }
}

#[test]
fn different_seeds_change_execution() {
    let mut cfg = ExperimentConfig::test();
    let bench = suite::ft();
    let a = cfg.run(&bench, &Scheme::Shared);
    cfg.seed ^= 0xDEAD_BEEF;
    let b = cfg.run(&bench, &Scheme::Shared);
    assert_ne!(a.wall_cycles, b.wall_cycles);
}

#[test]
fn seed_changes_keep_shape() {
    // The qualitative outcome (which scheme wins) must be robust to the
    // seed, not an artifact of one stream realisation.
    let bench = suite::mgrid();
    for seed in [1u64, 99, 12345] {
        let mut cfg = ExperimentConfig::test();
        cfg.seed = seed;
        let shared = cfg.run(&bench, &Scheme::Shared);
        let equal = cfg.run(&bench, &Scheme::StaticEqual);
        let dynamic = cfg.run(&bench, &Scheme::ModelBased);
        assert!(
            dynamic.improvement_percent_over(&equal) > 0.0,
            "seed {seed}: dynamic must beat equal"
        );
        assert!(
            dynamic.improvement_percent_over(&shared) > -4.0,
            "seed {seed}: dynamic must be at least competitive with shared"
        );
    }
}

const MATRIX_SEED: u64 = 0x5EED_0D16;

/// FNV-1a fold of everything a digest consumer reads: the wall clock and
/// every per-thread counter.
fn digest(wall: u64, stats: &GlobalStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(wall);
    for t in &stats.threads {
        mix(t.instructions);
        mix(t.active_cycles);
        mix(t.barrier_stall_cycles);
        mix(t.l1_hits);
        mix(t.l1_misses);
        mix(t.l2_hits);
        mix(t.l2_misses);
        mix(t.l1_writebacks);
        mix(t.l2_writebacks);
        mix(t.coherence_invalidations);
    }
    h
}

fn run_sliced(mut sim: Llc, cfg: &SystemConfig) -> (u64, GlobalStats) {
    sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
    while let Some(r) = sim.run_interval() {
        if r.finished {
            break;
        }
    }
    (sim.wall_cycles(), sim.stats().clone())
}

fn sliced_config(slices: u32) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down();
    cfg.llc = LlcConfig::sliced(slices);
    cfg
}

/// The digest matrix: slice counts {1, 4, 8} × core budget {1, 8} ×
/// stream delivery {inline generation, trace-cache cold, trace-cache
/// warm, trace-cache split}. Budget 1 runs every slice inline; budget 8
/// gives every slice a worker. Within one slice count every cell must
/// produce the same digest bit for bit — the promise the
/// `#[deterministic]` annotations (and icp-lint's D-rules) encode
/// statically.
#[test]
fn slice_cache_budget_matrix_is_digest_identical() {
    let bench = suite::cg();
    // The streams do not depend on the slice count, so the whole-stream
    // cells draw them from the monolithic config and one trace-cache key
    // serves the matrix.
    let base = SystemConfig::scaled_down();
    let cache = TraceCache::shared();
    let replay = || cache.replay_streams(&bench, &base, WorkloadScale::Test, MATRIX_SEED);
    // The split cells replay each slice count's own entry: the per-slice
    // sub-traces the runner's machines share.
    let splits = TraceCache::shared();
    for n in [1u32, 4, 8] {
        let cfg = sliced_config(n);
        let mut expected: Option<(u64, GlobalStats, u64)> = None;
        for total in [1usize, 8] {
            let variants: Vec<(&str, Llc)> = vec![
                (
                    "inline",
                    Llc::new(cfg, bench.build_streams(&base, WorkloadScale::Test, MATRIX_SEED)),
                ),
                // The first call of the whole test generates (cold); every
                // later call replays the cached packed columns (warm).
                ("cache-cold", Llc::new(cfg, replay())),
                ("cache-warm", Llc::new(cfg, replay())),
                (
                    "cache-split",
                    Llc::from_traces(
                        cfg,
                        &splits.get_or_pack(&bench, &cfg, WorkloadScale::Test, MATRIX_SEED),
                    ),
                ),
            ];
            for (label, llc) in variants {
                let (wall, stats) =
                    budget::scoped(CoreBudget::new(total), || run_sliced(llc, &cfg));
                let d = digest(wall, &stats);
                match &expected {
                    None => expected = Some((wall, stats, d)),
                    Some((w, s, e)) => {
                        assert_eq!(wall, *w, "N={n} budget={total} {label}: wall clock diverged");
                        assert_eq!(&stats, s, "N={n} budget={total} {label}: stats diverged");
                        assert_eq!(d, *e, "N={n} budget={total} {label}: digest diverged");
                    }
                }
            }
        }
    }
    assert_eq!(cache.generations(), 1, "one workload, generated exactly once");
    assert_eq!(
        cache.hits(),
        11,
        "3 slice counts x 2 budgets x 2 cache cells, all but the first served warm"
    );
    assert_eq!(splits.generations(), 3, "one split per slice count");
    assert_eq!(splits.hits(), 3, "the second budget replays each split");
}

/// Core-budget arbitration must never change results — only where and
/// when work executes. One workload on a 4-slice LLC, digested under
/// budgets {1, 2, 3, host}: inline, partial grants (3 workers split the
/// 4 slices into uneven chunks) and one worker per slice must all match
/// bit for bit.
#[test]
fn budget_invariance_matrix_is_digest_identical() {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let bench = suite::cg();
    let cfg = sliced_config(4);
    let mut budgets = vec![1usize, 2, 3, host];
    budgets.sort_unstable();
    budgets.dedup();
    let mut expected: Option<(u64, GlobalStats, u64)> = None;
    for total in budgets {
        let (wall, stats) = budget::scoped(CoreBudget::new(total), || {
            let streams = bench.build_streams(&cfg, WorkloadScale::Test, MATRIX_SEED);
            run_sliced(Llc::new(cfg, streams), &cfg)
        });
        let d = digest(wall, &stats);
        match &expected {
            None => expected = Some((wall, stats, d)),
            Some((w, s, e)) => {
                assert_eq!(wall, *w, "budget={total}: wall diverged");
                assert_eq!(&stats, s, "budget={total}: stats diverged");
                assert_eq!(d, *e, "budget={total}: digest diverged");
            }
        }
    }
}

/// The lease watermark bounds live workers: every spawned worker in the
/// workspace holds a leased token, so even the deepest nesting we have —
/// a scheme map whose jobs share one trace cache, each recording the
/// workload's unclaimed threads on producers of its own and then running
/// a sliced LLC with slice workers of its own — can never exceed the
/// budget, and every token comes back once the run's leases drop.
#[test]
fn thread_peak_never_exceeds_budget() {
    let bench = suite::ft();
    let schemes = [Scheme::Shared, Scheme::StaticEqual, Scheme::ModelBased];
    for total in [1usize, 2, 3] {
        let cfg =
            ExperimentConfig::test().with_topology(4, 4).with_trace_cache(TraceCache::shared());
        let b = CoreBudget::new(total);
        budget::scoped(Arc::clone(&b), || {
            for out in cfg.run_schemes(&bench, &schemes) {
                assert!(out.wall_cycles > 0);
            }
        });
        assert!(
            b.peak_threads() <= total,
            "budget={total}: peak {} exceeded the budget",
            b.peak_threads()
        );
        assert_eq!(b.spare(), total - 1, "budget={total}: tokens leaked");
    }
}

#[test]
fn parallel_and_serial_sweeps_agree() {
    // The sweep harness must not perturb results: parallel_map returns the
    // same outcomes as direct sequential runs.
    let cfg = ExperimentConfig::test();
    let bench = suite::applu();
    let schemes = all_schemes();
    let parallel = cfg.run_schemes(&bench, &schemes);
    for (scheme, p) in schemes.iter().zip(&parallel) {
        let s = cfg.run(&bench, scheme);
        assert_eq!(p.wall_cycles, s.wall_cycles, "{scheme:?}");
    }
}

/// Cells of a 4-point exact sweep axis: points x 3 probes x 3 schemes.
const AXIS_CELLS: usize = 4 * 3 * 3;

/// Runs one 4-point exact sweep axis at test scale under budgets {1, 2,
/// host, one worker per cell} (each distinct value once) and returns the
/// result cache's (simulations, hits), after checking that the rendered
/// table and the counts are identical at every budget. A sweep plan runs
/// all of an axis's cells in one scheduler map, so the budget changes
/// which worker runs which cell, and when. It must change neither the
/// table nor the counts: concurrent requests for one result-cache key
/// wait for a single simulation instead of duplicating it. The widest
/// budget starts every cell at once, so each repeated key is requested
/// while its first simulation is still in flight.
fn budget_invariant_sweep(axis: fn(&ExperimentConfig, SweepMode) -> Table) -> (u64, u64) {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut budgets = vec![1usize, 2, host, AXIS_CELLS];
    budgets.sort_unstable();
    budgets.dedup();
    let mut expected: Option<(String, (u64, u64))> = None;
    for total in budgets {
        let cache = ResultCache::shared();
        let cfg = ExperimentConfig::test().with_result_cache(Arc::clone(&cache));
        let table = budget::scoped(CoreBudget::new(total), || axis(&cfg, SweepMode::Exact));
        let counts = (cache.simulations(), cache.hits());
        match &expected {
            None => expected = Some((table.render(), counts)),
            Some((t, c)) => {
                assert_eq!(&table.render(), t, "budget={total}: table diverged");
                assert_eq!(&counts, c, "budget={total}: (simulations, hits) diverged");
            }
        }
    }
    expected.map(|(_, counts)| counts).expect("at least one budget ran")
}

#[test]
fn interval_sweep_is_budget_invariant() {
    assert_eq!(
        budget_invariant_sweep(sweeps::sweep_interval_with),
        (18, 18),
        "3 probes x (2 hoisted baselines + 4 dynamic points) simulated, \
         3 probes x 3 repeated points x 2 baselines served as hits"
    );
}

#[test]
fn thread_count_sweep_is_budget_invariant() {
    assert_eq!(
        budget_invariant_sweep(sweeps::sweep_thread_count_with),
        (36, 0),
        "4 points x 3 probes x 3 schemes, all distinct"
    );
}

/// Events recorded per thread by the pinned-digest scenarios.
const PINNED_EVENTS: usize = 2_000;

/// Paper-shaped system (1 MB 64-way L2) at `cores` cores, with intervals
/// short enough that the interval machinery runs.
fn pinned_config(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.cores = cores;
    cfg.interval_instructions = 2_000_000;
    cfg
}

/// Runs `sim` to completion and folds the wall clock with every thread's
/// active cycles, L2 misses and L2 hits.
fn pinned_digest<M: Measurable>(sim: &mut M) -> u64 {
    while let Some(r) = sim.run_interval() {
        if r.finished {
            break;
        }
    }
    sim.stats()
        .threads
        .iter()
        .map(|t| {
            t.active_cycles
                .wrapping_mul(31)
                .wrapping_add(t.l2_misses)
                .wrapping_add(t.l2_hits.wrapping_mul(7))
        })
        .fold(sim.wall_cycles(), |acc, x| {
            acc.wrapping_mul(1_000_003).wrapping_add(x)
        })
}

/// The L1-miss/L2-hit path: one core walking half the L2 in a scrambled
/// order, and the miss + prefetch path: one core streaming sequentially
/// with a degree-4 prefetcher.
#[test]
fn pinned_single_core_digests() {
    let mut cfg = pinned_config(1);
    cfg.l1 = CacheConfig::new(8 * 1024, 4, 64);
    let ws_lines = cfg.l2.size_bytes / cfg.l2.line_bytes / 2;
    let events: Vec<ThreadEvent> = (0..PINNED_EVENTS as u64)
        .map(|i| ThreadEvent::access(1, (i.wrapping_mul(0x9E37_79B1) % ws_lines) * 64))
        .collect();
    let mut sim = Simulator::new(cfg, vec![Box::new(ReplayStream::new(events))]);
    assert_eq!(
        pinned_digest(&mut sim),
        0x0000_004c_5efd_0250,
        "L2-hit path"
    );

    let mut cfg = pinned_config(1);
    cfg.prefetch_degree = 4;
    let events: Vec<ThreadEvent> = (0..PINNED_EVENTS as u64)
        .map(|i| ThreadEvent::Access {
            gap: 2,
            addr: i * 64,
            write: false,
            mlp_tenths: 40,
        })
        .collect();
    let mut sim = Simulator::new(cfg, vec![Box::new(ReplayStream::new(events))]);
    assert_eq!(
        pinned_digest(&mut sim),
        0x0000_000a_6e61_2b50,
        "miss + prefetch path"
    );
}

/// Master seed of the pinned 4-thread workload.
const PINNED_4T_SEED: u64 = 0xB007_5EED;

/// `threads` threads cycling four archetypes (streaming, cache-friendly,
/// two mid-size) with 10 % sharing.
fn pinned_mix(threads: usize) -> BenchmarkSpec {
    let mut b = WorkloadBuilder::new("pinned-mix")
        .sections(1, 1_000_000_000_000)
        .shared_region(0.1, 0.8);
    for i in 0..threads {
        b = match i % 4 {
            0 => b.thread(|t| t.working_set(2.0).theta(0.5).memory_intensity(0.3).mlp(6.0)),
            1 => b.thread(|t| t.working_set(0.05).theta(1.0).memory_intensity(0.25)),
            2 => b.thread(|t| t.working_set(0.5).theta(0.8).memory_intensity(0.2)),
            _ => b.thread(|t| {
                t.working_set(0.3)
                    .theta(0.7)
                    .memory_intensity(0.15)
                    .mlp(2.0)
            }),
        };
    }
    b.build()
}

/// Each thread's first `PINNED_EVENTS` events recorded into a packed
/// trace, the threads fanned over producers leased from the current core
/// budget ([`budget::fan_out`]) as the trace cache records them.
fn record_pinned(spec: &BenchmarkSpec, cfg: &SystemConfig, seed: u64) -> Vec<Arc<PackedTrace>> {
    budget::fan_out(spec.threads.len(), |t| {
        let scale = WorkloadScale::Figure;
        let mut s = SyntheticStream::new(spec, &spec.threads[t], t, cfg, scale, seed);
        Arc::new(PackedTrace::record(&mut s, PINNED_EVENTS))
    })
}

/// The 4-thread interleaved path: the mix replayed from packed traces
/// under an equal way partition with 8 L2 banks. The run retires exactly
/// the instructions and accesses the traces hold.
#[test]
fn pinned_interleaved_4t_digest() {
    let mut cfg = pinned_config(4);
    cfg.l2_banks = 8;
    let traces = record_pinned(&pinned_mix(4), &cfg, PINNED_4T_SEED);
    let replays: Vec<Box<dyn AccessStream>> = traces
        .iter()
        .map(|t| Box::new(PackedTrace::stream(t)) as Box<dyn AccessStream>)
        .collect();
    let mut sim = Simulator::new(cfg, replays);
    sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
    assert_eq!(pinned_digest(&mut sim), 0xeccb_b649_76e2_fbd2);
    for (t, trace) in sim.stats().threads.iter().zip(&traces) {
        assert_eq!(t.instructions, trace.instructions());
        assert_eq!(t.l1_hits + t.l1_misses, trace.accesses() as u64);
    }
}

/// Folds per-thread `(instructions, accesses, barriers)` generation
/// counters, seeded with the total access count.
fn generation_digest(per_thread: &[(u64, u64, u64)]) -> u64 {
    let accesses: u64 = per_thread.iter().map(|&(_, a, _)| a).sum();
    per_thread
        .iter()
        .map(|&(i, a, b)| {
            i.wrapping_mul(31)
                .wrapping_add(a)
                .wrapping_add(b.wrapping_mul(7))
        })
        .fold(accesses, |acc, x| {
            acc.wrapping_mul(1_000_003).wrapping_add(x)
        })
}

fn trace_counters(traces: &[Arc<PackedTrace>]) -> Vec<(u64, u64, u64)> {
    traces
        .iter()
        .map(|t| (t.instructions(), t.accesses() as u64, t.barriers() as u64))
        .collect()
}

/// Generation of the 4-thread mix carries the same content whether packed
/// on one core, packed on parallel producers, or drained through a
/// recycled columnar chunk.
#[test]
fn pinned_generation_digest_across_paths() {
    const PINNED: u64 = 0x4af4_3501_94b7_5b21;
    let mut cfg = pinned_config(4);
    cfg.l2_banks = 8;
    let spec = pinned_mix(4);
    for total in [1usize, 2] {
        let traces =
            budget::scoped(CoreBudget::new(total), || record_pinned(&spec, &cfg, PINNED_4T_SEED));
        assert_eq!(
            generation_digest(&trace_counters(&traces)),
            PINNED,
            "fanned-out recording at budget {total}"
        );
    }

    const BATCH: usize = 4096;
    let mut chunk = PackedTrace::with_capacity(BATCH);
    let drained: Vec<(u64, u64, u64)> = spec
        .threads
        .iter()
        .enumerate()
        .map(|(t, ts)| {
            let mut stream =
                SyntheticStream::new(&spec, ts, t, &cfg, WorkloadScale::Figure, PINNED_4T_SEED);
            let (mut insts, mut accs, mut bars) = (0u64, 0u64, 0u64);
            let mut remaining = PINNED_EVENTS;
            loop {
                let finished = stream.fill_packed(&mut chunk, BATCH.min(remaining));
                remaining -= chunk.len();
                insts += chunk.instructions();
                accs += chunk.accesses() as u64;
                bars += chunk.barriers() as u64;
                if finished || chunk.is_empty() {
                    break;
                }
            }
            (insts, accs, bars)
        })
        .collect();
    assert_eq!(generation_digest(&drained), PINNED, "fill_packed drain");
}

/// `cores` threads of the archetype mix on a `slices`-slice LLC under an
/// equal way partition.
fn pinned_sliced_digest(cores: usize, slices: u32) -> u64 {
    let mut cfg = pinned_config(cores);
    cfg.l2_banks = 8;
    cfg.llc = LlcConfig::sliced(slices);
    let streams: Vec<_> = record_pinned(&pinned_mix(cores), &cfg, 0x511C_ED16)
        .iter()
        .map(PackedTrace::stream)
        .collect();
    let mut sim = Llc::new(cfg, streams);
    sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
    pinned_digest(&mut sim)
}

/// 16 cores on 4 slices, inline (budget 1) and on slice workers
/// (budget 2), and 64 cores on 8 slices, the widest configured topology.
#[test]
fn pinned_sliced_digests() {
    for total in [1usize, 2] {
        let digest = budget::scoped(CoreBudget::new(total), || pinned_sliced_digest(16, 4));
        assert_eq!(digest, 0xee23_694f_37d1_8b78, "16 x 4 at budget {total}");
    }
    let digest = budget::scoped(CoreBudget::new(2), || pinned_sliced_digest(64, 8));
    assert_eq!(digest, 0x7474_028f_dcb2_948b, "64 x 8");
}
