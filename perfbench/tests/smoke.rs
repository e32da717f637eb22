//! Test-scale smoke of every workload through the `perfbench` binary:
//! every metric `BENCHMARK.json` names is emitted with its unit, the traced
//! copy's digests equal the product path's, two runs with one seed give
//! identical digests and gains, and a run whose outputs differ from the
//! recorded reference fails.

use std::path::{Path, PathBuf};
use std::process::Command;

use icp_experiments::json::Json;

const SEED: &str = "11";

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("no {section} in BENCHMARK.json")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed {section} entry {m}"),
        })
        .collect()
}

/// The reference outputs the benchmark ships with.
fn reference() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json")
}

/// Runs one test-scale pass (plus its traced copy with `trace`), checked
/// against `reference`, and returns whether the process succeeded, the
/// provenance and the result objects.
fn invoke(workload: &str, trace: bool, out: &Path, reference: &Path) -> (bool, Json, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0"])
        .args(["--scale", "test", "--trace", if trace { "1" } else { "0" }])
        .arg("--work")
        .arg(out.join("work"))
        .arg("--out")
        .arg(out)
        .arg("--reference")
        .arg(reference)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload} printed no result:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let provenance = Json::parse(lines[lines.len() - 2]).expect("provenance line is JSON");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    (
        output.status.success(),
        provenance
            .get("provenance")
            .expect("provenance object")
            .clone(),
        result,
    )
}

/// [`invoke`] against the shipped reference, which must succeed.
fn run(workload: &str, trace: bool, out: &Path) -> (Json, Json) {
    let (ok, provenance, result) = invoke(workload, trace, out, &reference());
    assert!(ok, "{workload} failed: {provenance}\n{result}");
    (provenance, result)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

fn assert_emits(result: &Json, section: &str) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{result}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{result}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics in {result}")
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, m)| match m.get("unit") {
            Some(Json::Str(u)) => (n.clone(), u.clone()),
            _ => panic!("{n} has no unit"),
        })
        .collect();
    assert_eq!(emitted, declared(section), "{section} metrics and units");
}

/// Runs the checks every workload shares; returns the traced result.
fn smoke(workload: &str) -> Json {
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let (first, untraced) = run(workload, false, &out);
    let (second, _) = run(workload, false, &out);
    let (traced_prov, traced) = run(workload, true, &out);
    assert_emits(&untraced, "end_to_end");
    assert_emits(&traced, "per_layer");
    // A traced run only succeeds when its digests equal the product path's
    // in the same process; the digests must also repeat across processes.
    for key in [
        "digest",
        "cache_digest",
        "gain_vs_shared_pct",
        "gain_vs_equal_pct",
    ] {
        assert_eq!(first.get(key), second.get(key), "{workload} {key} repeats");
        assert_eq!(
            first.get(key),
            traced_prov.get(key),
            "{workload} {key} traced"
        );
    }
    assert!(metric(&traced, "result_cache.lookups") > 0.0);
    // Seed 11 has no reference entry, so every run is also checked at the
    // reference seed.
    assert_eq!(
        first.get("reference"),
        Some(&Json::str(format!(
            "{workload} at test scale, seed {}",
            icp_experiments::ExperimentConfig::quick().seed
        )))
    );
    let _ = std::fs::remove_dir_all(&out);
    traced
}

#[test]
fn figures_smoke() {
    smoke("figures");
}

#[test]
fn sweeps_smoke() {
    smoke("sweeps");
}

#[test]
fn figures_warm_smoke() {
    // The warm pass serves everything from disk.
    let traced = smoke("figures_warm");
    assert_eq!(metric(&traced, "result_cache.simulations"), 0.0);
    assert_eq!(metric(&traced, "trace_cache.generations"), 0.0);
    assert_eq!(metric(&traced, "result_cache.hit_ratio"), 1.0);
}

#[test]
fn sliced16_smoke() {
    smoke("sliced16");
}

#[test]
fn warm_serves_the_figures_outcomes() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-warm-vs-cold");
    let (cold, _) = run("figures", false, &out);
    let (warm, _) = run("figures_warm", false, &out);
    assert_eq!(cold.get("digest"), warm.get("digest"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_changed_result_fails_the_run() {
    // A reference whose `figures` digest at the check key disagrees with
    // what the program computes stands in for a change of results.
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-changed-result");
    std::fs::create_dir_all(&out).expect("scratch directory");
    let text = std::fs::read_to_string(reference()).expect("reference.json");
    let doc = Json::parse(&text).expect("reference.json parses");
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        panic!("reference.json has no entries")
    };
    let Some(Json::Str(digest)) = entries
        .iter()
        .find(|e| {
            e.get("workload") == Some(&Json::str("figures"))
                && e.get("scale") == Some(&Json::str("test"))
        })
        .and_then(|e| e.get("digest"))
    else {
        panic!("no test-scale figures entry in reference.json")
    };
    let changed = out.join("reference.json");
    std::fs::write(&changed, text.replace(digest.as_str(), "0123456789abcdef"))
        .expect("write the changed reference");
    let (ok, _, result) = invoke("figures", false, &out, &changed);
    assert!(!ok, "{result}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{result}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(36.0));
    let _ = std::fs::remove_dir_all(&out);
}
