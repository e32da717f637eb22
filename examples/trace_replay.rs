//! Record-once / simulate-many with the trace subsystem: capture each
//! thread's access stream of a benchmark into binary traces, then replay
//! the *identical* access sequences under different partitioning schemes.
//!
//! This is how the paper-style methodology decouples workload capture from
//! policy evaluation: every scheme sees exactly the same per-thread event
//! sequence, so differences in outcome are attributable to the cache
//! policy alone (in live runs, barrier timing lets threads interleave
//! differently across schemes).
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use icp::baselines::{SharedCachePolicy, StaticEqualPolicy};
use icp::runtime::{IntraAppRuntime, ModelBasedPolicy, Partitioner};
use std::sync::Arc;

use icp::sim::{PackedTrace, Simulator, SystemConfig};
use icp::workloads::{suite, SyntheticStream, WorkloadScale};

fn main() {
    let cfg = SystemConfig::scaled_down();
    let bench = suite::cg();

    // 1. Record: drain each thread's synthetic stream into a trace.
    let traces: Vec<PackedTrace> = (0..4)
        .map(|t| {
            let mut s = SyntheticStream::new(&bench, &bench.threads[t], t, &cfg, WorkloadScale::Figure, 99);
            PackedTrace::record(&mut s, usize::MAX)
        })
        .collect();
    let bytes: usize = traces.iter().map(|t| t.to_bytes().len()).sum();
    println!("recorded {} events ({} KiB serialised) from {}",
             traces.iter().map(PackedTrace::len).sum::<usize>(), bytes / 1024, bench.name);

    // 2. Serialise + reload (as an external consumer would).
    let reloaded: Vec<Arc<PackedTrace>> = traces
        .iter()
        .map(|t| Arc::new(PackedTrace::from_bytes(&t.to_bytes()).expect("roundtrip")))
        .collect();

    // 3. Replay under three schemes.
    let mut results = Vec::new();
    let schemes: Vec<(&str, Box<dyn Partitioner + Send>)> = vec![
        ("shared", Box::new(SharedCachePolicy)),
        ("static-equal", Box::new(StaticEqualPolicy)),
        ("model-based", Box::new(ModelBasedPolicy::new())),
    ];
    for (name, policy) in schemes {
        // Zero-copy replays: every scheme shares the reloaded columns.
        let streams = reloaded
            .iter()
            .map(|t| Box::new(PackedTrace::stream(t)) as Box<dyn icp::sim::stream::AccessStream>)
            .collect();
        let mut sim = Simulator::new(cfg, streams);
        let mut rt = IntraAppRuntime::new(policy, &cfg);
        let out = rt.execute(&mut sim);
        results.push((name, out.wall_cycles));
    }

    println!("\nreplaying the identical traces under each scheme:");
    let best = results.iter().map(|(_, w)| *w).min().unwrap();
    for (name, wall) in &results {
        println!(
            "  {name:<14} {wall:>12} cycles  ({:+.1}% vs best)",
            (*wall as f64 / best as f64 - 1.0) * 100.0
        );
    }
}
