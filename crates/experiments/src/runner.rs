//! Running one benchmark under one partitioning scheme, and sweep
//! utilities.

use icp_baselines::{
    FairnessOrientedPolicy, ModelThroughputPolicy, SharedCachePolicy, StaticEqualPolicy,
    StaticPolicy, UcpThroughputPolicy,
};
use icp_cmp_sim::{AccessStream, Llc, Machine, SystemConfig};
use icp_core::policy::Partitioner;
use icp_core::{
    CpiProportionalPolicy, ExecutionOutcome, HierarchicalPolicy, IntraAppRuntime,
    ModelBasedPolicy,
};
use icp_workloads::{BenchmarkSpec, WorkloadScale};

/// The partitioning schemes the experiments compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Plain shared cache (global LRU) — Figure 20 baseline.
    Shared,
    /// Static equal partition (= private caches / optimal fairness) —
    /// Figure 19 baseline.
    StaticEqual,
    /// The paper's §VI-A CPI-proportional dynamic scheme.
    CpiProportional,
    /// The paper's §VI-B model-based dynamic scheme (the headline scheme).
    ModelBased,
    /// Model-based with the strict Figure 13 termination rule (revert on
    /// *any* critical-thread change) — ablation.
    ModelBasedStrict,
    /// Model-based with an alternative curve family — ablation.
    ModelBasedWith(icp_core::ModelKind),
    /// Model-based with phase-change detection (model reset on 50%
    /// prediction error) — extension/ablation.
    ModelBasedPhaseDetect,
    /// UCP-style throughput-oriented scheme — Figure 21 baseline.
    UcpThroughput,
    /// Throughput objective on the paper's spline machinery (ablation).
    ModelThroughput,
    /// Fairness objective on the paper's spline machinery (extension).
    Fairness,
    /// The dynamic model-based policy applied through OS-style *set*
    /// partitioning (page coloring) instead of way partitioning —
    /// mechanism comparison.
    SetPartitionDynamic,
    /// A fixed custom partition (sensitivity sweeps).
    StaticCustom(Vec<u32>),
    /// Hierarchical lookahead (LFOC-style cluster-then-partition): the
    /// given number of thread clusters, inter-cluster capacity by greedy
    /// lookahead over merged per-cluster UMON curves, the paper's
    /// CPI-proportional critical-path policy within each cluster — the
    /// scaling path for 8+ core sliced-LLC configs.
    HierarchicalLookahead(usize),
}

impl Scheme {
    /// Builds the policy object for this scheme.
    pub fn policy(&self) -> Box<dyn Partitioner + Send> {
        match self {
            Scheme::Shared => Box::new(SharedCachePolicy),
            Scheme::StaticEqual => Box::new(StaticEqualPolicy),
            Scheme::CpiProportional => Box::new(CpiProportionalPolicy::new()),
            Scheme::ModelBased => Box::new(ModelBasedPolicy::new()),
            Scheme::ModelBasedStrict => Box::new(ModelBasedPolicy::with_strict_termination()),
            Scheme::ModelBasedWith(kind) => Box::new(ModelBasedPolicy::with_model_kind(*kind)),
            Scheme::ModelBasedPhaseDetect => Box::new(ModelBasedPolicy::with_phase_detection(0.5)),
            Scheme::UcpThroughput => Box::new(UcpThroughputPolicy::new()),
            Scheme::ModelThroughput => Box::new(ModelThroughputPolicy::new()),
            Scheme::Fairness => Box::new(FairnessOrientedPolicy::new()),
            Scheme::SetPartitionDynamic => Box::new(
                icp_baselines::SetPartitionAdapter::new(ModelBasedPolicy::new()),
            ),
            Scheme::StaticCustom(ways) => Box::new(StaticPolicy::new(ways.clone())),
            Scheme::HierarchicalLookahead(clusters) => {
                Box::new(HierarchicalPolicy::clustered_lookahead(*clusters))
            }
        }
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Shared => "shared",
            Scheme::StaticEqual => "static-equal",
            Scheme::CpiProportional => "cpi-proportional",
            Scheme::ModelBased => "model-based",
            Scheme::ModelBasedStrict => "model-based-strict",
            Scheme::ModelBasedWith(_) => "model-based-alt",
            Scheme::ModelBasedPhaseDetect => "model-based-phase",
            Scheme::UcpThroughput => "ucp-throughput",
            Scheme::ModelThroughput => "model-throughput",
            Scheme::Fairness => "fairness",
            Scheme::SetPartitionDynamic => "set-partition",
            Scheme::StaticCustom(_) => "static-custom",
            Scheme::HierarchicalLookahead(_) => "hier-lookahead",
        }
    }
}

/// Common configuration for all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The simulated system.
    pub system: SystemConfig,
    /// Workload length scaling.
    pub scale: WorkloadScale,
    /// Master seed; every (benchmark, scheme) run derives its streams from
    /// this, so whole figures are reproducible from one number.
    pub seed: u64,
    /// L2 replacement policy (exact LRU by default; tree PLRU for the
    /// hardware-realism ablation).
    pub replacement: icp_cmp_sim::ReplacementKind,
    /// Partition enforcement mechanism (gradual replacement per §V by
    /// default; instant reconfiguration for the enforcement ablation).
    pub enforcement: icp_cmp_sim::EnforcementKind,
    /// Optional shared trace cache: when set, each distinct workload is
    /// generated once, packed, and replayed zero-copy for every scheme run
    /// (see [`crate::trace_cache::TraceCache`]). `None` generates each
    /// run's workload into a private cache — bit-identical results either
    /// way.
    pub trace_cache: Option<std::sync::Arc<crate::trace_cache::TraceCache>>,
    /// Optional shared result cache: when set, each distinct
    /// (benchmark, system, scale, seed, scheme) simulation runs once and
    /// every later request for the same point is served from memory (or
    /// disk, for persistent caches) — see
    /// [`crate::result_cache::ResultCache`]. `None` simulates every run —
    /// bit-identical results either way.
    pub result_cache: Option<std::sync::Arc<crate::result_cache::ResultCache>>,
}

impl ExperimentConfig {
    /// Fast figure-reproduction defaults: the scaled-down 4-core system
    /// with the interval length chosen so a run covers ~50 execution
    /// intervals, like the paper's measurement window.
    pub fn quick() -> Self {
        let mut system = SystemConfig::scaled_down();
        let scale = WorkloadScale::Figure;
        // 9 benchmarks share the same section structure; pick the interval
        // so that (threads x per-thread instructions) / interval ≈ 50.
        let per_thread = 12_000.0 * 10.0 * scale.factor(); // section x count x scale
        system.interval_instructions = ((per_thread * system.cores as f64) / 50.0) as u64;
        ExperimentConfig {
            system,
            scale,
            seed: 0x1C9_2010,
            replacement: icp_cmp_sim::ReplacementKind::TrueLru,
            enforcement: icp_cmp_sim::EnforcementKind::Replacement,
            trace_cache: None,
            result_cache: None,
        }
    }

    /// Tiny configuration for unit tests of the harness itself.
    pub fn test() -> Self {
        let mut system = SystemConfig::scaled_down();
        let scale = WorkloadScale::Test;
        let per_thread = 12_000.0 * 10.0;
        system.interval_instructions = ((per_thread * system.cores as f64) / 25.0) as u64;
        ExperimentConfig {
            system,
            scale,
            seed: 7,
            replacement: icp_cmp_sim::ReplacementKind::TrueLru,
            enforcement: icp_cmp_sim::EnforcementKind::Replacement,
            trace_cache: None,
            result_cache: None,
        }
    }

    /// Re-targets the experiment to `n` cores (Figure 22).
    pub fn with_cores(mut self, n: usize) -> Self {
        self.system.cores = n;
        self
    }

    /// Re-targets the experiment to `cores` cores over an LLC of `slices`
    /// address-hashed slices (1 = the paper's monolithic L2). The shared
    /// entry point for the eight-core figure and the `eight_plus_core`
    /// scorecard tier, so both drive the same machine-model code path.
    pub fn with_topology(mut self, cores: usize, slices: u32) -> Self {
        self.system.cores = cores;
        self.system.llc = icp_cmp_sim::LlcConfig::sliced(slices);
        self
    }

    /// Attaches a trace cache: workloads are generated once and replayed
    /// from packed traces for every subsequent run with the same inputs.
    pub fn with_trace_cache(
        mut self,
        cache: std::sync::Arc<crate::trace_cache::TraceCache>,
    ) -> Self {
        self.trace_cache = Some(cache);
        self
    }

    /// Attaches a fresh trace cache unless one is already present — the
    /// figure/sweep entry points call this so every multi-run pass
    /// generates each workload exactly once by default.
    pub fn with_default_trace_cache(&self) -> Self {
        let mut cfg = self.clone();
        if cfg.trace_cache.is_none() {
            cfg.trace_cache = Some(crate::trace_cache::TraceCache::shared());
        }
        cfg
    }

    /// Attaches a result cache: each distinct simulation runs once and is
    /// served from the cache for every later request with the same inputs.
    pub fn with_result_cache(
        mut self,
        cache: std::sync::Arc<crate::result_cache::ResultCache>,
    ) -> Self {
        self.result_cache = Some(cache);
        self
    }

    /// Attaches a fresh in-memory result cache unless one is already
    /// present — the figure/sweep entry points call this so every
    /// multi-run pass simulates each (benchmark, scheme) point exactly
    /// once by default.
    pub fn with_default_result_cache(&self) -> Self {
        let mut cfg = self.clone();
        if cfg.result_cache.is_none() {
            cfg.result_cache = Some(crate::result_cache::ResultCache::shared());
        }
        cfg
    }

    /// Resolves `bench` to the configured core count.
    pub(crate) fn normalized(&self, bench: &BenchmarkSpec) -> BenchmarkSpec {
        if bench.threads.len() == self.system.cores {
            bench.clone()
        } else {
            bench.with_threads(self.system.cores)
        }
    }

    /// The trace-cache key a run of `bench` replays from: runs with equal
    /// keys share one workload generation.
    pub(crate) fn trace_key(&self, bench: &BenchmarkSpec) -> String {
        crate::trace_cache::TraceCache::key(
            &self.normalized(bench),
            &self.system,
            self.scale,
            self.seed,
        )
    }

    /// One full simulation of `spec` (already normalised) under `scheme`,
    /// with a profiling utility monitor attached when `profile` is set.
    /// Every config runs the sliced [`Llc`] machine (one slice is the
    /// paper's monolithic L2, bit for bit), built over the workload's
    /// per-slice sub-traces from the trace cache — a private one when none
    /// is attached — so schemes sharing a cache share one split and the
    /// machine copies no trace.
    fn simulate(&self, spec: &BenchmarkSpec, scheme: &Scheme, profile: bool) -> ExecutionOutcome {
        let cache = self.trace_cache.clone().unwrap_or_default();
        let traces = cache.get_or_pack(spec, &self.system, self.scale, self.seed);
        let mut llc = Llc::from_traces(self.system, &traces);
        llc.set_replacement(self.replacement);
        llc.set_enforcement(self.enforcement);
        if profile {
            // Passive observation: the monitor shadows the L2 with sampled
            // ATDs but never feeds back into it, so simulated counters are
            // bit-identical with and without it (pinned by a runtime test).
            llc.enable_umon(1);
        }
        let mut runtime = IntraAppRuntime::new(scheme.policy(), &self.system);
        runtime.execute(&mut llc)
    }

    /// The event streams of `spec` (already normalised) for a monolithic
    /// [`icp_cmp_sim::Simulator`]: replayed from the trace cache when one
    /// is attached, generated inline otherwise — bit-identical either way.
    ///
    /// # Panics
    /// Panics on a sliced config: a cached sliced workload replays
    /// re-joined from its per-slice sub-traces ([`TraceCache::replay_streams`]),
    /// in an across-slice order that only an [`Llc`] of the same topology
    /// is blind to.
    ///
    /// [`TraceCache::replay_streams`]: crate::trace_cache::TraceCache::replay_streams
    pub(crate) fn streams(&self, spec: &BenchmarkSpec) -> Vec<Box<dyn AccessStream>> {
        assert!(
            self.system.llc.slices <= 1,
            "streams feed a monolithic Simulator"
        );
        match &self.trace_cache {
            Some(cache) => cache.replay_streams(spec, &self.system, self.scale, self.seed),
            None => spec.build_streams(&self.system, self.scale, self.seed),
        }
    }

    /// [`Self::run`] or, with `profile` set, [`Self::run_profiled`].
    pub(crate) fn run_inner(
        &self,
        bench: &BenchmarkSpec,
        scheme: &Scheme,
        profile: bool,
    ) -> ExecutionOutcome {
        let spec = self.normalized(bench);
        match &self.result_cache {
            Some(cache) => {
                let key = crate::result_cache::ResultCache::key(&spec, self, scheme, profile);
                // The stored name must be the *policy* name (what the
                // outcome carries), not the scheme label — ablation
                // variants share a policy name but differ in the key.
                let name = scheme.policy().name();
                cache.get_or_run(key, name, || self.simulate(&spec, scheme, profile))
            }
            None => self.simulate(&spec, scheme, profile),
        }
    }

    /// Runs `bench` under `scheme` and returns the outcome.
    pub fn run(&self, bench: &BenchmarkSpec, scheme: &Scheme) -> ExecutionOutcome {
        self.run_inner(bench, scheme, false)
    }

    /// Runs `bench` under `scheme` with a full-run profiling utility
    /// monitor: the returned outcome carries
    /// [`icp_core::ExecutionOutcome::umon_profile`] with cumulative
    /// way-hit histograms (the input of the analytical sweep fast path,
    /// [`crate::miss_model`]). Simulated counters are bit-identical to a
    /// plain [`ExperimentConfig::run`]; profiled runs cache under a
    /// distinct key.
    pub fn run_profiled(&self, bench: &BenchmarkSpec, scheme: &Scheme) -> ExecutionOutcome {
        self.run_inner(bench, scheme, true)
    }

    /// Runs `bench` under several schemes on budget-leased workers,
    /// preserving order. The runs share one generation of the workload: a
    /// trace cache scoped to the call is attached when none is.
    pub fn run_schemes(&self, bench: &BenchmarkSpec, schemes: &[Scheme]) -> Vec<ExecutionOutcome> {
        let cfg = self.with_default_trace_cache();
        crate::sched::parallel_map(schemes.to_vec(), |s| cfg.run(bench, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icp_workloads::suite;

    #[test]
    fn runs_one_benchmark_under_all_schemes() {
        let cfg = ExperimentConfig::test();
        let bench = suite::mg();
        for scheme in [
            Scheme::Shared,
            Scheme::StaticEqual,
            Scheme::CpiProportional,
            Scheme::ModelBased,
            Scheme::UcpThroughput,
            Scheme::ModelThroughput,
            Scheme::Fairness,
        ] {
            let out = cfg.run(&bench, &scheme);
            assert!(out.wall_cycles > 0, "{scheme:?}");
            assert!(out.intervals() > 0, "{scheme:?}");
            assert_eq!(out.scheme, scheme.label(), "{scheme:?}");
        }
    }

    #[test]
    fn every_scheme_builds_a_policy_with_matching_label() {
        use icp_core::ModelKind;
        let schemes = [
            Scheme::Shared,
            Scheme::StaticEqual,
            Scheme::CpiProportional,
            Scheme::ModelBased,
            Scheme::ModelBasedStrict,
            Scheme::ModelBasedWith(ModelKind::Pchip),
            Scheme::ModelBasedWith(ModelKind::Linear),
            Scheme::ModelBasedPhaseDetect,
            Scheme::UcpThroughput,
            Scheme::ModelThroughput,
            Scheme::Fairness,
            Scheme::SetPartitionDynamic,
            Scheme::StaticCustom(vec![16; 4]),
            Scheme::HierarchicalLookahead(2),
        ];
        for s in schemes {
            let p = s.policy();
            assert!(!p.name().is_empty(), "{s:?}");
            assert!(!s.label().is_empty(), "{s:?}");
            // Only the UCP baseline and the hierarchical lookahead scheme
            // need a utility monitor.
            let umon_schemes = s == Scheme::UcpThroughput
                || matches!(s, Scheme::HierarchicalLookahead(_));
            assert_eq!(p.wants_umon(), umon_schemes, "{s:?}");
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = ExperimentConfig::test();
        let bench = suite::ft();
        let a = cfg.run(&bench, &Scheme::ModelBased);
        let b = cfg.run(&bench, &Scheme::ModelBased);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn eight_core_retarget() {
        let cfg = ExperimentConfig::test().with_cores(8);
        let out = cfg.run(&suite::mg(), &Scheme::StaticEqual);
        assert_eq!(out.thread_totals.len(), 8);
    }

    #[test]
    fn sliced_topology_routes_through_llc_machine() {
        // One slice through with_topology must equal the monolithic path
        // bit for bit (both run a one-slice Llc over the same cache key).
        let mono = ExperimentConfig::test().with_cores(8);
        let one = ExperimentConfig::test().with_topology(8, 1);
        let a = mono.run(&suite::mg(), &Scheme::ModelBased);
        let b = one.run(&suite::mg(), &Scheme::ModelBased);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        // A genuinely sliced config runs and reports per-thread totals.
        let sliced = ExperimentConfig::test().with_topology(8, 4);
        let out = sliced.run(&suite::mg(), &Scheme::HierarchicalLookahead(2));
        assert_eq!(out.thread_totals.len(), 8);
        assert!(out.wall_cycles > 0);
        assert_eq!(out.scheme, "hier-lookahead");
        // Sliced runs are reproducible (slice-parallel merge is
        // deterministic).
        let again = sliced.run(&suite::mg(), &Scheme::HierarchicalLookahead(2));
        assert_eq!(out.wall_cycles, again.wall_cycles);
    }
}
