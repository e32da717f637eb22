//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! The traced run replays the product's cells through the benchmark's own
//! copy of the runner path (`ExperimentConfig::run` → `ResultCache` →
//! `TraceCache` → machine → `IntraAppRuntime`), using public calls only.
//! The machine and the policy are wrapped in [`TracedMachine`] and
//! [`TracedPolicy`], which time every call the runtime makes into them.
//! Nothing inside the simulator is instrumented, so the untraced passes
//! measure exactly the program `repro` runs.
//!
//! Each span records its name, start, end, parent span and cell id. A cell
//! buffers its spans locally and hands them to the [`Tracer`] when it ends;
//! everything stays in memory until the run writes it out.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use icp_cmp_sim::simulator::IntervalReport;
use icp_cmp_sim::stats::GlobalStats;
use icp_cmp_sim::umon::UtilityMonitor;
use icp_cmp_sim::{
    EnforcementKind, Llc, Machine, Measurable, ReplacementKind, Simulator, SystemConfig,
};
use icp_core::policy::{PartitionDecision, Partitioner};
use icp_core::{ExecutionOutcome, IntraAppRuntime};
use icp_experiments::sched::{self, SchedStats};
use icp_experiments::{ExperimentConfig, ResultCache, Scheme};
use icp_workloads::BenchmarkSpec;

/// Parent id of a root span.
pub const NO_PARENT: u64 = 0;
/// Cell id of spans that belong to no cell (scheduler maps).
pub const NO_CELL: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (never [`NO_PARENT`]).
    pub id: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// The cell the span belongs to, or [`NO_CELL`].
    pub cell: u32,
    /// Layer-qualified call name, e.g. `machine.run_interval`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and scheduler statistics for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_cell: AtomicU32,
    spans: Mutex<Vec<Span>>,
    sched: Mutex<Vec<SchedStats>>,
    /// Trace-cache keys some cell has already asked for: the first asker
    /// is the one that generates, later askers hit or wait.
    claimed: Mutex<HashSet<String>>,
    /// Accesses replayed by the cells that generated their workload.
    gen_accesses: AtomicU64,
    /// Accesses replayed by every cell that simulated.
    sim_accesses: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(NO_PARENT + 1),
            next_cell: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            sched: Mutex::new(Vec::new()),
            claimed: Mutex::new(HashSet::new()),
            gen_accesses: AtomicU64::new(0),
            sim_accesses: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// A recorder for the cell `cell` (use [`NO_CELL`] outside cells).
    pub fn recorder(&self, cell: u32) -> Recorder<'_> {
        Recorder {
            tracer: self,
            cell,
            spans: RefCell::new(Vec::new()),
            exec_parent: Cell::new(NO_PARENT),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in no particular order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking cell")
            .clone()
    }

    /// Scheduler statistics of every traced map.
    pub fn sched_stats(&self) -> Vec<SchedStats> {
        self.sched
            .lock()
            .expect("sched store poisoned by a panicking map")
            .clone()
    }

    /// Accesses replayed by the cells that generated their workload.
    pub fn gen_accesses(&self) -> u64 {
        self.gen_accesses.load(Ordering::Relaxed)
    }

    /// Accesses replayed by every cell that simulated.
    pub fn sim_accesses(&self) -> u64 {
        self.sim_accesses.load(Ordering::Relaxed)
    }

    /// Forgets which trace-cache keys were claimed (call before a pass
    /// that starts from a fresh trace cache).
    pub fn reset_claims(&self) {
        self.claimed.lock().expect("claim set poisoned").clear();
    }

    /// Runs `f` over `jobs` through `sched::weighted_map_stats`, inside a
    /// `sched.map` span whose id `f` receives as the cells' parent.
    pub fn map<I, F>(
        &self,
        jobs: Vec<I>,
        cost: impl Fn(&I) -> u64,
        f: F,
    ) -> (Vec<ExecutionOutcome>, SchedStats)
    where
        I: Send + Sync,
        F: Fn(&I, u64) -> ExecutionOutcome + Sync,
    {
        let top = self.recorder(NO_CELL);
        let (outs, stats) = top.span("sched.map", NO_PARENT, |map| {
            sched::weighted_map_stats(jobs, cost, |j| f(j, map))
        });
        self.sched.lock().expect("sched store poisoned").push(stats);
        (outs, stats)
    }

    /// One cell through the benchmark's copy of the runner path: key the
    /// cell, look it up in the result cache and, on a miss, replay the
    /// workload from the trace cache on a freshly built machine under the
    /// scheme's policy.
    pub fn cell(
        &self,
        parent: u64,
        cfg: &ExperimentConfig,
        bench: &BenchmarkSpec,
        scheme: &Scheme,
    ) -> ExecutionOutcome {
        let rec = self.recorder(self.next_cell.fetch_add(1, Ordering::Relaxed));
        let results = cfg
            .result_cache
            .as_ref()
            .expect("traced cells run against a result cache");
        rec.span("cell", parent, |cell| {
            let spec = if bench.threads.len() == cfg.system.cores {
                bench.clone()
            } else {
                bench.with_threads(cfg.system.cores)
            };
            let key = rec.span("result_cache.key", cell, |_| {
                ResultCache::key(&spec, cfg, scheme, false)
            });
            let name = scheme.policy().name();
            rec.span("result_cache.get_or_run", cell, |lookup| {
                results.get_or_run(key, name, || {
                    rec.span("simulate", lookup, |sim| {
                        self.simulate(&rec, sim, cfg, &spec, scheme)
                    })
                })
            })
        })
    }

    fn simulate(
        &self,
        rec: &Recorder<'_>,
        parent: u64,
        cfg: &ExperimentConfig,
        spec: &BenchmarkSpec,
        scheme: &Scheme,
    ) -> ExecutionOutcome {
        let traces = cfg
            .trace_cache
            .as_ref()
            .expect("traced cells run against a trace cache");
        // Same inputs as the trace cache's own key.
        let workload = format!(
            "{spec:?}|l2={}x{}|slices={}|scale={:?}|seed={:#x}",
            cfg.system.l2.size_bytes,
            cfg.system.l2.line_bytes,
            cfg.system.llc.slices,
            cfg.scale,
            cfg.seed
        );
        let generates = self
            .claimed
            .lock()
            .expect("claim set poisoned")
            .insert(workload);
        let name = if generates {
            "trace_cache.generate"
        } else {
            "trace_cache.reuse"
        };
        let streams = rec.span(name, parent, |_| {
            traces.replay_streams(spec, &cfg.system, cfg.scale, cfg.seed)
        });
        let out = if cfg.system.llc.slices > 1 {
            let llc = rec.span("machine.build", parent, |_| Llc::new(cfg.system, streams));
            drive(rec, parent, cfg, scheme, llc)
        } else {
            let sim = rec.span("machine.build", parent, |_| {
                Simulator::new(cfg.system, streams)
            });
            drive(rec, parent, cfg, scheme, sim)
        };
        let replayed = accesses(&out);
        self.sim_accesses.fetch_add(replayed, Ordering::Relaxed);
        if generates {
            self.gen_accesses.fetch_add(replayed, Ordering::Relaxed);
        }
        out
    }
}

/// Demand accesses (L1 hits + misses) an outcome simulated.
fn accesses(out: &ExecutionOutcome) -> u64 {
    out.thread_totals
        .iter()
        .map(|c| c.l1_hits + c.l1_misses)
        .sum()
}

/// Configures the machine as the runner does and runs the scheme's
/// runtime loop on it, with the machine and the policy wrapped.
fn drive<M: Machine>(
    rec: &Recorder<'_>,
    parent: u64,
    cfg: &ExperimentConfig,
    scheme: &Scheme,
    machine: M,
) -> ExecutionOutcome {
    let mut machine = TracedMachine {
        inner: machine,
        rec,
    };
    machine.set_replacement(cfg.replacement);
    machine.set_enforcement(cfg.enforcement);
    let policy = TracedPolicy {
        inner: scheme.policy(),
        rec,
    };
    let mut runtime = IntraAppRuntime::new(policy, &cfg.system);
    rec.span("runtime.execute", parent, |exec| {
        rec.exec_parent.set(exec);
        runtime.execute(&mut machine)
    })
}

/// Buffers the spans of one cell on the thread that runs it.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    cell: u32,
    spans: RefCell<Vec<Span>>,
    /// The `runtime.execute` span the wrapped machine and policy report to.
    exec_parent: Cell<u64>,
}

impl Recorder<'_> {
    /// Times `f` as span `name` under `parent`; `f` receives the new
    /// span's id so nested calls can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        let out = f(id);
        let end_ns = self.tracer.now_ns();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            cell: self.cell,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        // A poisoned store means another cell panicked; that run is
        // already failed, so these spans are dropped with it.
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(self.spans.get_mut());
        }
    }
}

/// A machine that times the calls the runtime makes into it.
pub struct TracedMachine<'r, 't, M> {
    inner: M,
    rec: &'r Recorder<'t>,
}

impl<M: Machine> Measurable for TracedMachine<'_, '_, M> {
    fn stats(&self) -> &GlobalStats {
        self.inner.stats()
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn wall_cycles(&self) -> u64 {
        self.inner.wall_cycles()
    }

    fn run_interval(&mut self) -> Option<IntervalReport> {
        let parent = self.rec.exec_parent.get();
        self.rec.span("machine.run_interval", parent, |_| {
            self.inner.run_interval()
        })
    }
}

impl<M: Machine> Machine for TracedMachine<'_, '_, M> {
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn set_partition(&mut self, targets: &[u32]) {
        let parent = self.rec.exec_parent.get();
        self.rec.span("machine.apply", parent, |_| {
            self.inner.set_partition(targets)
        });
    }

    fn set_set_partition(&mut self, quotas: &[u32]) {
        let parent = self.rec.exec_parent.get();
        self.rec.span("machine.apply", parent, |_| {
            self.inner.set_set_partition(quotas)
        });
    }

    fn set_unpartitioned(&mut self) {
        let parent = self.rec.exec_parent.get();
        self.rec
            .span("machine.apply", parent, |_| self.inner.set_unpartitioned());
    }

    fn set_replacement(&mut self, kind: ReplacementKind) {
        self.inner.set_replacement(kind);
    }

    fn set_enforcement(&mut self, kind: EnforcementKind) {
        self.inner.set_enforcement(kind);
    }

    fn enable_umon(&mut self, sample_every: u64) {
        self.inner.enable_umon(sample_every);
    }

    fn umon_enabled(&self) -> bool {
        self.inner.umon_enabled()
    }

    fn umon_view(&self) -> Option<Cow<'_, UtilityMonitor>> {
        let parent = self.rec.exec_parent.get();
        self.rec
            .span("machine.umon_view", parent, |_| self.inner.umon_view())
    }

    fn decay_umon(&mut self) {
        self.inner.decay_umon();
    }
}

/// A policy that times its decisions and its monitor reads.
pub struct TracedPolicy<'r, 't> {
    inner: Box<dyn Partitioner + Send>,
    rec: &'r Recorder<'t>,
}

impl Partitioner for TracedPolicy<'_, '_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial(&mut self, threads: usize, total_ways: u32) -> PartitionDecision {
        self.inner.initial(threads, total_ways)
    }

    fn repartition(&mut self, report: &IntervalReport, total_ways: u32) -> PartitionDecision {
        let parent = self.rec.exec_parent.get();
        self.rec.span("policy.repartition", parent, |_| {
            self.inner.repartition(report, total_ways)
        })
    }

    fn wants_umon(&self) -> bool {
        self.inner.wants_umon()
    }

    fn observe_umon(&mut self, umon: &UtilityMonitor) {
        let parent = self.rec.exec_parent.get();
        self.rec.span("policy.observe_umon", parent, |_| {
            self.inner.observe_umon(umon)
        });
    }
}
