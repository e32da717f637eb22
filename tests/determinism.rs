//! Cross-crate determinism guarantees: a run is a pure function of
//! (config, spec, scheme, seed).
//!
//! The matrix test at the bottom is the static analyzer's runtime
//! counterpart: `icp-lint`'s D-rules prove the `#[deterministic]` closure
//! avoids nondeterminism sources; this suite pins the digests those rules
//! protect, across every delivery path a stream can take into the sharded
//! engine.

use std::sync::Arc;

use icp::experiments::sweeps::{self, SweepMode};
use icp::experiments::table::Table;
use icp::experiments::{ExperimentConfig, ResultCache, Scheme, TraceCache};
use icp::sim::budget::{self, CoreBudget};
use icp::sim::config::LlcConfig;
use icp::sim::l2::equal_split;
use icp::sim::shard::ShardedSimulator;
use icp::sim::slice::Llc;
use icp::sim::stream::AccessStream;
use icp::sim::{GlobalStats, PipelinedStream, SystemConfig};
use icp::workloads::{suite, BenchmarkSpec, SyntheticStream, WorkloadScale};

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

fn run_sharded(mut sim: ShardedSimulator, cfg: &SystemConfig) -> (u64, GlobalStats) {
    sim.set_partition(&equal_split(cfg.l2.ways, cfg.cores));
    while let Some(r) = sim.run_interval() {
        if r.finished {
            break;
        }
    }
    (sim.wall_cycles(), sim.stats().clone())
}

fn pipelined_streams(spec: &BenchmarkSpec, cfg: &SystemConfig) -> Vec<Box<dyn AccessStream>> {
    spec.threads
        .iter()
        .enumerate()
        .map(|(t, ts)| {
            let synth = SyntheticStream::new(spec, ts, t, cfg, WorkloadScale::Test, MATRIX_SEED);
            // Small batch/depth so producer and consumer hand off often.
            Box::new(PipelinedStream::spawn_with(synth, 64, 2)) as Box<dyn AccessStream>
        })
        .collect()
}

/// The digest matrix: shard counts {1, 3, 8} × stream delivery {inline
/// generation, pipelined generation, trace-cache cold, trace-cache warm}
/// × engine {parallel, serial reference}. Within one shard count every
/// cell must produce the same digest bit for bit — the promise the
/// `#[deterministic]` annotations (and icp-lint's D-rules) encode
/// statically.
#[test]
fn shard_cache_pipeline_matrix_is_digest_identical() {
    let cfg = SystemConfig::scaled_down();
    let bench = suite::cg();
    let cache = TraceCache::shared();
    for k in [1usize, 3, 8] {
        let variants: Vec<(&str, Vec<Box<dyn AccessStream>>)> = vec![
            ("inline", bench.build_streams(&cfg, WorkloadScale::Test, MATRIX_SEED)),
            ("pipelined", pipelined_streams(&bench, &cfg)),
            // First call of the whole test generates (cold); every later
            // call replays the cached packed columns (warm).
            ("cache-cold", cache.replay_streams(&bench, &cfg, WorkloadScale::Test, MATRIX_SEED)),
            ("cache-warm", cache.replay_streams(&bench, &cfg, WorkloadScale::Test, MATRIX_SEED)),
        ];
        let mut expected: Option<(u64, GlobalStats, u64)> = None;
        for (label, streams) in variants {
            let (wall, stats) = run_sharded(ShardedSimulator::new(cfg, streams, k), &cfg);
            let d = digest(wall, &stats);
            match &expected {
                None => expected = Some((wall, stats, d)),
                Some((w, s, e)) => {
                    assert_eq!(wall, *w, "k={k} {label}: wall clock diverged");
                    assert_eq!(&stats, s, "k={k} {label}: stats diverged");
                    assert_eq!(d, *e, "k={k} {label}: digest diverged");
                }
            }
        }
        // The parallel engine against its single-threaded reference, fed
        // from the (warm) cache like a real sweep.
        let reference = ShardedSimulator::serial_reference(
            cfg,
            cache.replay_streams(&bench, &cfg, WorkloadScale::Test, MATRIX_SEED),
            k,
        );
        let (wall, stats) = run_sharded(reference, &cfg);
        let (w, s, e) = expected.expect("matrix ran");
        assert_eq!(wall, w, "k={k}: serial reference wall diverged");
        assert_eq!(stats, s, "k={k}: serial reference stats diverged");
        assert_eq!(digest(wall, &stats), e, "k={k}: serial reference digest diverged");
    }
    assert_eq!(cache.generations(), 1, "one workload, generated exactly once");
    assert_eq!(cache.hits(), 8, "every later matrix cell served warm");
}

/// Streams for the budget matrix: inline generation, or generation
/// behind the budget-gated pipelined constructor ([`PipelinedStream::spawn`]
/// leases a producer token and degrades to inline when the pool is dry).
fn streams_for(
    spec: &BenchmarkSpec,
    cfg: &SystemConfig,
    pipelined: bool,
) -> Vec<Box<dyn AccessStream>> {
    if !pipelined {
        return spec.build_streams(cfg, WorkloadScale::Test, MATRIX_SEED);
    }
    spec.threads
        .iter()
        .enumerate()
        .map(|(t, ts)| {
            let synth = SyntheticStream::new(spec, ts, t, cfg, WorkloadScale::Test, MATRIX_SEED);
            Box::new(PipelinedStream::spawn(synth)) as Box<dyn AccessStream>
        })
        .collect()
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

/// Core-budget arbitration must never change results — only where and
/// when work executes. One workload digested across budget {1, 2, host}
/// × stream delivery {inline, budget-gated pipelined} × engine
/// {set-sharded (k = 3), sliced LLC (4 slices)}: within one engine every
/// cell must match bit for bit. Topologies are pinned explicitly —
/// the *sizing* helper (`ShardedSimulator::auto`) legitimately follows
/// the budget, which would change the decomposition, not the guarantee.
#[test]
fn budget_invariance_matrix_is_digest_identical() {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let bench = suite::cg();
    let sharded_cfg = SystemConfig::scaled_down();
    let mut sliced_cfg = SystemConfig::scaled_down();
    sliced_cfg.llc = LlcConfig::sliced(4);

    // expected[0]: sharded engine, expected[1]: sliced engine.
    let mut expected: [Option<(u64, GlobalStats, u64)>; 2] = [None, None];
    for total in [1usize, 2, host] {
        for pipelined in [false, true] {
            let label = if pipelined { "pipelined" } else { "inline" };
            let cells = budget::scoped(CoreBudget::new(total), || {
                vec![
                    (
                        "sharded",
                        run_sharded(
                            ShardedSimulator::new(
                                sharded_cfg,
                                streams_for(&bench, &sharded_cfg, pipelined),
                                3,
                            ),
                            &sharded_cfg,
                        ),
                    ),
                    (
                        "sliced",
                        run_sliced(
                            Llc::new(sliced_cfg, streams_for(&bench, &sliced_cfg, pipelined)),
                            &sliced_cfg,
                        ),
                    ),
                ]
            });
            for (i, (engine, (wall, stats))) in cells.into_iter().enumerate() {
                let d = digest(wall, &stats);
                match &expected[i] {
                    None => expected[i] = Some((wall, stats, d)),
                    Some((w, s, e)) => {
                        assert_eq!(wall, *w, "budget={total} {label} {engine}: wall diverged");
                        assert_eq!(&stats, s, "budget={total} {label} {engine}: stats diverged");
                        assert_eq!(d, *e, "budget={total} {label} {engine}: digest diverged");
                    }
                }
            }
        }
    }
}

/// The lease watermark bounds live workers: every spawned worker in the
/// workspace holds a leased token, so even the deepest nesting we have —
/// pipelined producers feeding a sharded engine — can never exceed the
/// budget, and every token comes back once the run's leases drop.
#[test]
fn thread_peak_never_exceeds_budget() {
    let cfg = SystemConfig::scaled_down();
    let bench = suite::ft();
    for total in [1usize, 2, 3] {
        let b = CoreBudget::new(total);
        budget::scoped(Arc::clone(&b), || {
            let streams = streams_for(&bench, &cfg, true);
            let (wall, _) = run_sharded(ShardedSimulator::new(cfg, streams, 4), &cfg);
            assert!(wall > 0);
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
