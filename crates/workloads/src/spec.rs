//! Workload specifications: per-phase parameters, per-thread phase
//! machines, and whole-benchmark specs with barrier structure.

use std::sync::Arc;

use icp_cmp_sim::slice::SliceTopology;
use icp_cmp_sim::stream::AccessStream;
use icp_cmp_sim::{PackedTrace, SystemConfig};

use crate::stream::SyntheticStream;

/// Parameters of one execution phase of one thread.
///
/// Working-set sizes are expressed as a *fraction of the L2 capacity* so a
/// spec scales with the simulated cache (tests run a 256 KB L2, the paper
/// configuration a 1 MB one, and the phenomenology is preserved).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpec {
    /// Phase length in instructions, before workload scaling.
    pub instructions: u64,
    /// Private working set as a fraction of total L2 lines. May exceed 1.0
    /// for streaming/thrashing phases.
    pub ws_fraction: f64,
    /// Zipf exponent of the reuse distribution: high = strong locality.
    pub theta: f64,
    /// Fraction of instructions that are memory operations.
    pub mem_ratio: f64,
    /// Fraction of memory accesses directed at the application's shared
    /// region.
    pub shared_fraction: f64,
    /// Memory-level parallelism of this phase's misses (≥ 1.0). Dependent
    /// (pointer-chasing) phases serialise misses (1.0); streaming phases
    /// overlap them (hardware prefetch / independent loads), which is what
    /// lets a thread occupy cache under LRU without paying full miss
    /// latency — the paper's "poor cache behaviour, little performance
    /// gain" polluter (§I).
    pub mlp: f64,
    /// Fraction of memory accesses that are stores. Stores dirty cache
    /// lines and generate writeback traffic; they do not change timing in
    /// the blocking-core model (write-buffer assumption).
    pub write_fraction: f64,
}

impl PhaseSpec {
    /// A convenient steady phase (no phase change over time, serial
    /// misses).
    pub fn steady(ws_fraction: f64, theta: f64, mem_ratio: f64, shared_fraction: f64) -> Self {
        PhaseSpec {
            instructions: u64::MAX,
            ws_fraction,
            theta,
            mem_ratio,
            shared_fraction,
            mlp: 1.0,
            write_fraction: 0.3,
        }
    }

    /// Sets the phase's memory-level parallelism.
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        self.mlp = mlp;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) {
        assert!(self.instructions > 0, "phase length must be positive");
        assert!(self.ws_fraction > 0.0, "working set must be non-empty");
        assert!(self.theta > 0.0, "theta must be positive");
        assert!(
            self.mem_ratio > 0.0 && self.mem_ratio <= 1.0,
            "mem_ratio must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_fraction),
            "shared_fraction must be in [0, 1]"
        );
        assert!(
            (1.0..=16.0).contains(&self.mlp),
            "mlp must be in [1, 16]"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write_fraction must be in [0, 1]"
        );
    }
}

/// One thread's behaviour: a cyclic sequence of phases.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadSpec {
    /// Phases cycled in order for the lifetime of the thread.
    pub phases: Vec<PhaseSpec>,
}

impl ThreadSpec {
    /// A single-phase (steady) thread.
    pub fn steady(ws_fraction: f64, theta: f64, mem_ratio: f64, shared_fraction: f64) -> Self {
        ThreadSpec { phases: vec![PhaseSpec::steady(ws_fraction, theta, mem_ratio, shared_fraction)] }
    }

    /// Sets the memory-level parallelism of every phase.
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        for p in &mut self.phases {
            p.mlp = mlp;
        }
        self
    }

    /// Validates all phases.
    pub fn validate(&self) {
        assert!(!self.phases.is_empty(), "thread needs at least one phase");
        for p in &self.phases {
            p.validate();
        }
    }
}

/// Pre-set scaling levels for workload length.
///
/// The paper runs 50 intervals of 15 M instructions. Simulating 750 M
/// instructions per configuration is possible but slow; the scaling factor
/// shrinks all instruction counts while the cache-relative working-set
/// fractions keep the *behaviour* identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadScale {
    /// Fast unit/integration tests: a few hundred thousand instructions.
    Test,
    /// Figure reproduction runs: a few million instructions, enough for 50
    /// execution intervals of meaningful length.
    Figure,
    /// Close to the paper's scale (long; used only on demand).
    Paper,
}

impl WorkloadScale {
    /// Multiplier applied to every instruction count in a spec.
    pub fn factor(self) -> f64 {
        match self {
            WorkloadScale::Test => 1.0,
            WorkloadScale::Figure => 10.0,
            WorkloadScale::Paper => 400.0,
        }
    }
}

/// A whole application: per-thread phase machines plus the barrier
/// structure (§III-B) and the shared-data region.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::SystemConfig;
/// use icp_workloads::{suite, WorkloadScale};
///
/// let cfg = SystemConfig::scaled_down();
/// let spec = suite::cg();
/// let streams = spec.build_streams(&cfg, WorkloadScale::Test, 7);
/// assert_eq!(streams.len(), cfg.cores);
/// // Re-target to 8 cores for the Figure 22 study:
/// assert_eq!(spec.with_threads(8).threads.len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct BenchmarkSpec {
    /// Benchmark name (paper benchmark it stands in for).
    pub name: &'static str,
    /// One spec per thread. [`BenchmarkSpec::build_streams`] requires the
    /// simulated core count to match; [`BenchmarkSpec::with_threads`]
    /// re-targets a spec to another core count.
    pub threads: Vec<ThreadSpec>,
    /// Shared-region size as a fraction of L2 lines.
    pub shared_ws_fraction: f64,
    /// Distinguishes the shared regions of different *applications* running
    /// simultaneously (the hierarchical setting of §VI-C): streams built
    /// from specs with different ids never share data. Single-application
    /// experiments leave this at 0.
    pub shared_region_id: u64,
    /// Zipf exponent of shared-region accesses.
    pub shared_theta: f64,
    /// Number of barrier-delimited parallel sections.
    pub sections: u32,
    /// Instructions each thread retires per section, before scaling.
    pub section_instructions: u64,
}

impl BenchmarkSpec {
    /// Validates the whole spec.
    pub fn validate(&self) {
        assert!(!self.threads.is_empty(), "benchmark needs threads");
        for t in &self.threads {
            t.validate();
        }
        assert!(self.shared_ws_fraction > 0.0);
        assert!(self.shared_theta > 0.0);
        assert!(self.sections > 0);
        assert!(self.section_instructions > 0);
    }

    /// Total instructions one thread retires over the whole run (scaled).
    pub fn instructions_per_thread(&self, scale: WorkloadScale) -> u64 {
        let per_section = (self.section_instructions as f64 * scale.factor()) as u64;
        per_section * self.sections as u64
    }

    /// Builds one deterministic access stream per core.
    ///
    /// # Panics
    /// Panics if `cfg.cores != self.threads.len()` (use
    /// [`Self::with_threads`] first) or the spec is invalid.
    pub fn build_streams(
        &self,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Box<dyn AccessStream>> {
        self.check(cfg);
        self.threads
            .iter()
            .enumerate()
            .map(|(t, ts)| {
                Box::new(SyntheticStream::new(self, ts, t, cfg, scale, seed)) as Box<dyn AccessStream>
            })
            .collect()
    }

    /// Records thread `t`'s stream straight into its per-slice packed
    /// sub-traces for `cfg`'s LLC topology ([`SliceTopology::split`]); at
    /// one slice that is the single whole trace [`PackedTrace::record`]
    /// stores. Thread streams are seeded from independent forks of the
    /// master RNG, so the result is a pure function of (spec, `t`, `cfg`,
    /// `scale`, `seed`), whichever thread records it and whenever.
    ///
    /// # Panics
    /// Same conditions as [`Self::build_streams`], or if `t` is not a
    /// thread of the spec.
    pub fn split_thread(
        &self,
        t: usize,
        cfg: &SystemConfig,
        scale: WorkloadScale,
        seed: u64,
    ) -> Vec<Arc<PackedTrace>> {
        self.check(cfg);
        let mut s = SyntheticStream::new(self, &self.threads[t], t, cfg, scale, seed);
        SliceTopology::of(cfg).split(&mut s)
    }

    /// Validates the spec and that it has one thread per simulated core.
    fn check(&self, cfg: &SystemConfig) {
        self.validate();
        assert_eq!(
            cfg.cores,
            self.threads.len(),
            "spec has {} threads but system has {} cores",
            self.threads.len(),
            cfg.cores
        );
    }

    /// Re-targets the spec to `n` threads by cycling the existing thread
    /// profiles (used for the paper's 8-core sensitivity study, Figure 22).
    ///
    /// Per-thread working sets are scaled by `old_n / n`: an OpenMP
    /// application divides the same data among its threads, so running the
    /// same problem on more cores shrinks each thread's share. (Without
    /// this, an 8-thread run would carry twice the total working set of the
    /// 4-thread run and overwhelm the fixed-size L2.)
    pub fn with_threads(&self, n: usize) -> BenchmarkSpec {
        assert!(n > 0);
        let scale = self.threads.len() as f64 / n as f64;
        let threads: Vec<ThreadSpec> = (0..n)
            .map(|i| {
                let mut ts = self.threads[i % self.threads.len()].clone();
                for p in &mut ts.phases {
                    p.ws_fraction = (p.ws_fraction * scale).max(0.01);
                }
                ts
            })
            .collect();
        BenchmarkSpec { threads, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "sample",
            threads: vec![
                ThreadSpec::steady(0.5, 0.6, 0.3, 0.1),
                ThreadSpec::steady(0.1, 0.9, 0.3, 0.1),
            ],
            shared_ws_fraction: 0.1,
            shared_region_id: 0,
            shared_theta: 0.8,
            sections: 4,
            section_instructions: 1000,
        }
    }

    #[test]
    fn validate_accepts_sane_spec() {
        sample_spec().validate();
    }

    #[test]
    #[should_panic(expected = "mem_ratio")]
    fn validate_rejects_bad_mem_ratio() {
        let mut s = sample_spec();
        s.threads[0].phases[0].mem_ratio = 1.5;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "working set")]
    fn validate_rejects_empty_ws() {
        let mut s = sample_spec();
        s.threads[0].phases[0].ws_fraction = 0.0;
        s.validate();
    }

    #[test]
    fn instructions_per_thread_scales() {
        let s = sample_spec();
        assert_eq!(s.instructions_per_thread(WorkloadScale::Test), 4000);
        assert_eq!(s.instructions_per_thread(WorkloadScale::Figure), 40_000);
    }

    #[test]
    fn with_threads_cycles_profiles() {
        let s = sample_spec().with_threads(5);
        assert_eq!(s.threads.len(), 5);
        assert_eq!(s.threads[0], s.threads[2]);
        assert_eq!(s.threads[1], s.threads[3]);
        assert_eq!(s.threads[4], s.threads[0]);
    }

    #[test]
    #[should_panic(expected = "threads but system has")]
    fn build_streams_checks_core_count() {
        let s = sample_spec();
        let cfg = SystemConfig::scaled_down(); // 4 cores, spec has 2
        s.build_streams(&cfg, WorkloadScale::Test, 1);
    }
}
