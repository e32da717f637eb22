//! Core-budget scheduler: cost-aware suite execution over arbitrated
//! nested parallelism.
//!
//! Every parallelism layer in the workspace — this outer (benchmark ×
//! scheme) pool, the slice workers inside each sliced-LLC simulation, the
//! producers that materialise each workload's traces — leases its OS
//! threads from one process-wide token pool ([`icp_cmp_sim::budget`], total =
//! `--jobs` / `ICP_CORES` / host cores). The outer pool here leases one
//! token per worker and returns each token the moment that worker runs
//! out of jobs, so the tail of a suite automatically widens the inner
//! engines' parallelism as outer jobs drain. With a dry pool everything
//! degrades to the caller's thread — bit-identical, just serial.
//!
//! On top of the arbiter, suite execution is *cost-aware*: callers pass a
//! per-job cost estimate ([`job_cost`] for simulation cells) and jobs are
//! claimed longest-processing-time-first from a shared queue. Greedy
//! claim from an LPT-sorted queue is list scheduling: an idle worker
//! always takes the longest job still unclaimed (the work-stealing
//! discipline, with the queue as the single victim), which bounds the
//! makespan at 4/3 · OPT instead of the naive submission-order schedule
//! whose last-claimed job can be the longest one. Scheduling only moves
//! *when and where* jobs run; outputs are stitched back into input order,
//! so results are bit-identical at every budget value (pinned by
//! `tests/determinism.rs`).
//!
//! Multi-run passes (the figure matrix, every sweep axis) plan their
//! simulations up front as `Cell`s and hand them to `run_cells` as one
//! map, costed by one generation-first rule (`generation_first_costs`).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use icp_core::ExecutionOutcome;
use icp_workloads::BenchmarkSpec;

pub use icp_cmp_sim::budget;
use icp_cmp_sim::budget::Lease;

use crate::runner::{ExperimentConfig, Scheme};

/// What a scheduled pass actually used: observability for the bench
/// harness and the thread-ceiling regression tests.
#[derive(Clone, Copy, Debug)]
pub struct SchedStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Outer pool width (caller thread + leased workers).
    pub workers: usize,
    /// Peak live threads implied by the budget watermark over the pass
    /// (outer workers and inner engine workers both hold tokens).
    pub peak_threads: usize,
    /// Fraction of the outer workers' wall-clock spent inside jobs.
    pub utilization: f64,
    /// Wall-clock of the whole pass, seconds.
    pub elapsed_secs: f64,
}

/// Runs `f` over every element of `inputs` on budget-leased workers,
/// returning outputs in input order. Jobs are claimed in submission order
/// (uniform cost) — use [`weighted_map`] when per-job costs differ.
///
/// `f` must be deterministic per input for reproducibility (the
/// experiment runner's jobs are).
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    weighted_map(inputs, |_| 1, f)
}

/// [`parallel_map`] with longest-processing-time-first claim order:
/// `cost` estimates each job's relative duration (any monotone unit) and
/// workers claim expensive jobs first. Output order is input order
/// regardless.
pub fn weighted_map<I, O, F>(inputs: Vec<I>, cost: impl Fn(&I) -> u64, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    weighted_map_stats(inputs, cost, f).0
}

/// [`weighted_map`] returning [`SchedStats`] alongside the outputs.
pub fn weighted_map_stats<I, O, F>(
    inputs: Vec<I>,
    cost: impl Fn(&I) -> u64,
    f: F,
) -> (Vec<O>, SchedStats)
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let bud = budget::current();
    bud.reset_watermark();
    let start = Instant::now();
    let n = inputs.len();
    if n == 0 {
        return (
            Vec::new(),
            SchedStats {
                jobs: 0,
                workers: 0,
                peak_threads: 0,
                utilization: 0.0,
                elapsed_secs: 0.0,
            },
        );
    }
    // LPT order: stable descending sort by estimated cost, index as the
    // tiebreak so equal-cost jobs keep submission order.
    let costs: Vec<u64> = inputs.iter().map(&cost).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    // One token per extra worker, leased individually so each returns the
    // moment its worker exits the claim loop (tail widening).
    let mut extras: Vec<Option<Lease>> = Vec::new();
    while extras.len() + 1 < n.min(bud.total()) {
        let l = bud.lease(1);
        if l.tokens() == 0 {
            break;
        }
        extras.push(Some(l));
    }
    let workers = 1 + extras.len();
    let (buffers, busy) = pool_run(&inputs, &order, extras, &f);
    let elapsed = start.elapsed().as_secs_f64();
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, out) in buffers {
        slots[i] = Some(out);
    }
    let outs: Vec<O> = slots.into_iter().flatten().collect();
    assert_eq!(outs.len(), n, "every index claimed by exactly one worker");
    let stats = SchedStats {
        jobs: n,
        workers,
        peak_threads: bud.peak_threads(),
        utilization: if elapsed > 0.0 { (busy / (elapsed * workers as f64)).min(1.0) } else { 1.0 },
        elapsed_secs: elapsed,
    };
    (outs, stats)
}

/// The pre-arbiter baseline, kept callable for the `sched-bench` speedup
/// gate: a flat pool sized straight from the budget *total* (not from
/// leases), with every job run under a fresh private budget of the same
/// total — so each inner engine sizes itself as if it owned the whole
/// machine, reproducing the M outer × N inner oversubscription this
/// module exists to fix. At total = 1 this degrades to the same serial
/// execution as [`parallel_map`], which is what makes it a fair baseline.
pub fn flat_map_unarbitrated<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let total = budget::current().total();
    let order: Vec<usize> = (0..n).collect();
    let extras: Vec<Option<Lease>> = (1..n.min(total)).map(|_| None).collect();
    let wrapped = |input: &I| budget::scoped(budget::CoreBudget::new(total), || f(input));
    let (buffers, _busy) = pool_run(&inputs, &order, extras, &wrapped);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, out) in buffers {
        slots[i] = Some(out);
    }
    let outs: Vec<O> = slots.into_iter().flatten().collect();
    assert_eq!(outs.len(), n, "every index claimed by exactly one worker");
    outs
}

/// Estimated relative cost of simulating one (benchmark × scheme) cell:
/// instructions per thread at the configured scale × thread count ×
/// slice count — the same inputs [`crate::BenchPredictor`] and
/// [`crate::TraceCache`] keys already carry. Units are arbitrary; only
/// the ordering matters to the LPT queue.
pub fn job_cost(bench: &BenchmarkSpec, cfg: &ExperimentConfig) -> u64 {
    let insts = bench.instructions_per_thread(cfg.scale).max(1);
    let cores = cfg.system.cores.max(1) as u64;
    let slices = u64::from(cfg.system.llc.slices.max(1));
    insts.saturating_mul(cores).saturating_mul(slices)
}

/// Cost multiplier for the cell that pays a workload's one-time trace
/// generation: the first cell to request a workload generates it, every
/// later cell with the same trace-cache key replays it. Generation
/// dominates a cold cell's cost, so the LPT queue should front-load these
/// cells.
pub(crate) const GENERATION_WEIGHT: u64 = 6;

/// One simulation of a planned pass: `bench` under `scheme` on `cfg`,
/// plain ([`ExperimentConfig::run`]) or with a profiling utility monitor
/// ([`ExperimentConfig::run_profiled`]).
#[derive(Debug)]
pub(crate) struct Cell<'a> {
    /// The configuration the cell runs under.
    pub(crate) cfg: &'a ExperimentConfig,
    /// The benchmark (normalised to `cfg`'s core count by the runner).
    pub(crate) bench: &'a BenchmarkSpec,
    /// The partitioning scheme.
    pub(crate) scheme: Scheme,
    /// Whether the run carries a profiling utility monitor.
    pub(crate) profiled: bool,
}

impl<'a> Cell<'a> {
    /// A plain (unprofiled) cell.
    pub(crate) fn new(
        cfg: &'a ExperimentConfig,
        bench: &'a BenchmarkSpec,
        scheme: Scheme,
    ) -> Self {
        Cell { cfg, bench, scheme, profiled: false }
    }

    /// Runs the cell through the configuration's caches.
    pub(crate) fn run(&self) -> ExecutionOutcome {
        self.cfg.run_inner(self.bench, &self.scheme, self.profiled)
    }
}

/// LPT costs of a planned pass, generation first: [`job_cost`] per cell,
/// times [`GENERATION_WEIGHT`] for the first cell (in input order) of every
/// distinct trace-cache key. That cell generates the workload, so ordering
/// it first overlaps generations with each other across workers and with
/// simulation of already-generated workloads, instead of every worker
/// piling onto one workload's cells and waiting on its trace-cache slot.
pub(crate) fn generation_first_costs(cells: &[Cell<'_>]) -> Vec<u64> {
    let mut generated = BTreeSet::new();
    cells
        .iter()
        .map(|c| {
            let cost = job_cost(c.bench, c.cfg);
            if generated.insert(c.cfg.trace_key(c.bench)) {
                cost.saturating_mul(GENERATION_WEIGHT)
            } else {
                cost
            }
        })
        .collect()
}

/// Runs every cell of a planned pass as one [`weighted_map_stats`] map,
/// costed by [`generation_first_costs`]. Outputs come back in input order.
pub(crate) fn run_cells(cells: Vec<Cell<'_>>) -> (Vec<ExecutionOutcome>, SchedStats) {
    let costs = generation_first_costs(&cells);
    let jobs: Vec<(Cell<'_>, u64)> = cells.into_iter().zip(costs).collect();
    weighted_map_stats(jobs, |(_, cost)| *cost, |(cell, _)| cell.run())
}

/// Shared pool executor: spawns one scoped worker per `extras` entry
/// (moving the optional token lease into the worker so it is returned at
/// claim-loop exit), runs the caller as worker 0, and has every worker
/// claim `order` entries from a shared cursor. Returns the unordered
/// `(index, output)` pairs plus total seconds spent inside `f`.
///
/// The cursor is a sequentially-consistent atomic used *only* to hand
/// out queue positions — every output flows back through a scoped join,
/// never through shared state, so claim-order races cannot reach a
/// result (waived for D4 on that basis).
fn pool_run<I, O, F>(
    inputs: &[I],
    order: &[usize],
    extras: Vec<Option<Lease>>,
    f: &F,
) -> (Vec<(usize, O)>, f64)
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let worker = |token: Option<Lease>| {
        let _token = token;
        let mut local: Vec<(usize, O)> = Vec::new();
        let mut busy = 0.0f64;
        loop {
            let k = cursor.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            match order.get(k) {
                Some(&idx) => {
                    let t0 = Instant::now();
                    let out = f(&inputs[idx]);
                    busy += t0.elapsed().as_secs_f64();
                    local.push((idx, out));
                }
                None => break,
            }
        }
        (local, busy)
        // `_token` drops here: the worker's core returns to the pool the
        // moment it runs out of jobs.
    };
    // Scoped budget overrides are thread-local; capture the caller's and
    // re-enter it on every worker so inner engines see the same budget.
    let caller_budget = budget::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = extras
            .into_iter()
            .map(|token| {
                let b = Arc::clone(&caller_budget);
                scope.spawn(move || budget::scoped(b, || worker(token)))
            })
            .collect();
        let (mut pairs, mut busy) = worker(None);
        for h in handles {
            match h.join() {
                Ok((part, b)) => {
                    pairs.extend(part);
                    busy += b;
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (pairs, busy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |&x: &i32| x + 1), vec![8]);
    }

    #[test]
    fn heavy_closure_runs_once_per_input() {
        let calls = AtomicU32::new(0);
        let out = parallel_map((0..37).collect(), |&x: &i32| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 37);
        assert_eq!(calls.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn weighted_map_preserves_order_with_any_costs() {
        let inputs: Vec<i32> = (0..64).collect();
        let out = weighted_map(inputs, |&x| (x % 7) as u64, |&x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn lpt_claims_expensive_jobs_first() {
        // Serial budget so the caller claims everything itself: the claim
        // sequence is then exactly the LPT order.
        let claimed = std::sync::Mutex::new(Vec::new());
        budget::scoped(budget::CoreBudget::new(1), || {
            let costs = [3u64, 9, 1, 9, 5];
            weighted_map((0..5usize).collect(), |&i| costs[i], |&i| {
                claimed.lock().unwrap().push(i);
            });
        });
        // Descending cost, index-stable for the tie at 9.
        assert_eq!(*claimed.lock().unwrap(), vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn serial_budget_spawns_no_workers() {
        budget::scoped(budget::CoreBudget::new(1), || {
            let (out, stats) = weighted_map_stats((0..10).collect(), |_| 1, |&x: &i32| x);
            assert_eq!(out.len(), 10);
            assert_eq!(stats.workers, 1);
            assert_eq!(stats.peak_threads, 1);
        });
    }

    #[test]
    fn stats_report_pool_shape() {
        budget::scoped(budget::CoreBudget::new(3), || {
            let (out, stats) = weighted_map_stats((0..50).collect(), |_| 1, |&x: &i32| x + 1);
            assert_eq!(out.len(), 50);
            assert_eq!(stats.jobs, 50);
            assert_eq!(stats.workers, 3, "budget of 3 leases two extra workers");
            assert!(stats.peak_threads <= 3, "never exceeds the budget");
            assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
        });
    }

    #[test]
    fn pool_tokens_return_after_the_map() {
        let b = budget::CoreBudget::new(4);
        budget::scoped(Arc::clone(&b), || {
            parallel_map((0..16).collect(), |&x: &i32| x);
        });
        assert_eq!(b.spare(), 3, "all worker tokens returned");
    }

    #[test]
    fn flat_baseline_matches_scheduled_results() {
        let inputs: Vec<i32> = (0..40).collect();
        let flat = flat_map_unarbitrated(inputs.clone(), |&x| x * x);
        let sched = parallel_map(inputs, |&x| x * x);
        assert_eq!(flat, sched);
    }

    #[test]
    fn worker_panic_propagates() {
        let hits = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map((0..8).collect(), |&x: &i32| {
                hits.fetch_add(1, Ordering::SeqCst);
                assert!(x != 3, "boom");
                x
            })
        }));
        assert!(result.is_err(), "job panic must reach the caller");
    }

    #[test]
    fn generation_first_costs_weight_the_first_cell_of_each_trace_key() {
        let cfg = ExperimentConfig::test();
        let later = {
            let mut c = cfg.clone();
            // Interval length is not part of the trace key: same workload.
            c.system.interval_instructions /= 2;
            c
        };
        let (cg, ft) = (icp_workloads::suite::cg(), icp_workloads::suite::ft());
        let cells = vec![
            Cell::new(&cfg, &cg, Scheme::Shared),
            Cell::new(&cfg, &cg, Scheme::ModelBased),
            Cell::new(&cfg, &ft, Scheme::Shared),
            Cell::new(&later, &cg, Scheme::Shared),
        ];
        let (cg_cost, ft_cost) = (job_cost(&cg, &cfg), job_cost(&ft, &cfg));
        assert_eq!(
            generation_first_costs(&cells),
            vec![cg_cost * GENERATION_WEIGHT, cg_cost, ft_cost * GENERATION_WEIGHT, cg_cost]
        );
    }

    #[test]
    fn job_cost_scales_with_topology() {
        let bench = icp_workloads::suite::all().remove(0);
        let small = ExperimentConfig::test();
        let big = ExperimentConfig::test().with_topology(8, 8);
        assert!(job_cost(&bench, &big) > job_cost(&bench, &small));
    }
}
