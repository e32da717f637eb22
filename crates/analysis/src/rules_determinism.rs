//! The determinism rules (D1–D5) over the workspace call graph.
//!
//! Where R1–R4 ([`crate::rules`]) are per-file, these rules are scoped by
//! the transitive closures of [`crate::callgraph`]: a function is checked
//! not because its module is on a list, but because the graph proves a
//! `#[deterministic]` or `#[hot_path]` root can reach it. The contract they
//! enforce is the repo's bit-identity promise — every parallel / packed /
//! cached execution path produces digests identical to the serial reference:
//!
//! * **D1 `det_hash_container`** — no `HashMap`/`HashSet` where a
//!   deterministic-closure function can see it: iteration order varies
//!   per-process (`RandomState`), so anything it feeds is nondeterministic.
//!   Checked in closure-function bodies *and* in type positions (fields,
//!   signatures) of files containing closure functions. Use `BTreeMap`/
//!   `BTreeSet` or collect-and-sort.
//! * **D2 `det_ambient`** — no ambient nondeterminism in the closure:
//!   `Instant::`/`SystemTime` clocks, `thread::current` identity,
//!   `available_parallelism` host sizing. The one host-sizing function
//!   (the core budget's host-parallelism fallback) carries a reviewed
//!   waiver.
//! * **D3 `det_float_order`** — no float reduction (`.sum()`, `.product()`,
//!   `.fold()`, `.reduce()` with `f32`/`f64` in the same statement) in the
//!   closure unless an `// ORDER:` comment states why the iteration order
//!   is fixed. Float addition is non-associative; a slice merge that folds
//!   in slice order is fine, one that folds over an unordered source is not.
//! * **D4 `det_sync`** — synchronisation discipline in the listed
//!   concurrency modules (`slice.rs`, `sched.rs`): no `Mutex`/`RwLock`/
//!   `Condvar`, no `Atomic*`/`Relaxed` counters, no detached
//!   `thread::spawn` (scoped `scope.spawn` + channels are the sanctioned
//!   idiom: results cross an ordered channel or a join, never a data race).
//! * **D5 `det_transitive`** — the call-graph replacement for per-module
//!   R3/R4 lists: panic patterns in any deterministic-closure function whose
//!   file is *not* already an R3 module, and allocation patterns in
//!   hot-closure functions that are not themselves `#[hot_path]`-marked
//!   (R4 covers the marked roots).
//!
//! Waivers use the same `analysis.toml` `allow` syntax as R1–R4
//! (`"file.rs::function"` / `"file.rs"`), one reviewed entry per exception.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lexer::{lex, TokKind, Token};
use crate::rules::{
    allowed, alloc_pattern, path_in, scan_group, Finding, NON_INDEX_KEYWORDS,
};

/// Names of the determinism rules (a subset of [`crate::rules::RULE_NAMES`]).
pub const DET_RULE_NAMES: &[&str] =
    &["det_hash_container", "det_ambient", "det_float_order", "det_sync", "det_transitive"];

/// Scope tracked by the walker: obligations are resolved once per function
/// scope and inherited by closures within.
#[derive(Clone, Debug)]
struct DScope {
    open_depth: u32,
    is_test: bool,
    fn_name: Option<String>,
    /// Function is in the deterministic closure.
    det: bool,
    /// Function is in the hot closure.
    hot: bool,
    /// Function directly carries `#[hot_path]` (R4's jurisdiction).
    hot_root: bool,
}

/// Runs D1–D5 over one file, using `graph` for closure membership.
/// `rel_path` is the workspace-relative path (matching the graph's keys).
pub fn check_file(rel_path: &str, src: &str, cfg: &Config, graph: &CallGraph) -> Vec<Finding> {
    let d1 = cfg.rule("det_hash_container");
    let d2 = cfg.rule("det_ambient");
    let d3 = cfg.rule("det_float_order");
    let d4 = cfg.rule("det_sync");
    let d5 = cfg.rule("det_transitive");
    let d4_applies = d4.enabled() && path_in(rel_path, d4.list("modules"));
    let r3_covers = path_in(rel_path, cfg.rule("no_panic").list("modules"));
    let file_det = graph.file_has_det(rel_path);
    let file_hot = graph.file_has_hot(rel_path);

    // Nothing in this file can produce a finding: skip the walk.
    if !file_det && !file_hot && !d4_applies {
        return Vec::new();
    }

    let lines: Vec<&str> = src.lines().collect();
    let toks = lex(src);
    let sig: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    let mut findings = Vec::new();
    let mut scopes: Vec<DScope> = Vec::new();
    let mut depth: u32 = 0;
    let mut paren_depth: u32 = 0;
    let mut bracket_depth: u32 = 0;
    let mut pending_test = false;
    let mut pending_fn: Option<String> = None;
    let mut pending_mod = false;
    // Dedup sets so one offending name yields one finding per line (type
    // positions repeat idents heavily; fixtures assert exact counts).
    let mut seen_d1: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut seen_d4: BTreeSet<(u32, String)> = BTreeSet::new();

    let mut i = 0;
    while i < sig.len() {
        let t = sig[i];
        let in_test = pending_test || scopes.iter().any(|s| s.is_test);
        let cur_fn = scopes.iter().rev().find_map(|s| s.fn_name.clone());
        let cur_det = scopes.iter().any(|s| s.det);
        let cur_hot = scopes.iter().any(|s| s.hot);
        let cur_hot_root = scopes.iter().any(|s| s.hot_root);

        match &t.kind {
            TokKind::Punct('#') => {
                let mut j = i + 1;
                let inner = j < sig.len() && sig[j].is_punct('!');
                if inner {
                    j += 1;
                }
                if j < sig.len() && sig[j].is_punct('[') {
                    let (idents, end) = scan_group(&sig, j);
                    if !inner {
                        let has = |s: &str| idents.iter().any(|id| id == s);
                        if (has("cfg") && has("test") && !has("not"))
                            || idents.first().is_some_and(|id| id == "test")
                        {
                            pending_test = true;
                        }
                    }
                    i = end;
                    continue;
                }
            }
            TokKind::Punct('{') => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    let o = graph.obligation(rel_path, &name);
                    scopes.push(DScope {
                        open_depth: depth,
                        is_test: in_test,
                        det: o.det || cur_det,
                        hot: o.hot || cur_hot,
                        hot_root: o.hot_root,
                        fn_name: Some(name),
                    });
                    pending_test = false;
                } else if pending_mod {
                    scopes.push(DScope {
                        open_depth: depth,
                        is_test: in_test,
                        det: false,
                        hot: false,
                        hot_root: false,
                        fn_name: None,
                    });
                    pending_mod = false;
                    pending_test = false;
                }
            }
            TokKind::Punct('}') => {
                if scopes.last().is_some_and(|s| s.open_depth == depth) {
                    scopes.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct('(') => paren_depth += 1,
            TokKind::Punct(')') => paren_depth = paren_depth.saturating_sub(1),
            TokKind::Punct(';') if paren_depth == 0 && bracket_depth == 0 => {
                pending_fn = None;
                pending_mod = false;
                pending_test = false;
            }
            TokKind::Punct('[') => bracket_depth += 1,
            TokKind::Punct(']') => bracket_depth = bracket_depth.saturating_sub(1),
            TokKind::Ident => match t.text.as_str() {
                "fn" => {
                    if let Some(name) = sig.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        pending_fn = Some(name.text.clone());
                    }
                }
                "mod" => pending_mod = true,
                "struct" | "enum" | "use" | "type" | "macro_rules" => {
                    pending_test = false;
                }
                // ---- D1: HashMap/HashSet where the closure can see it ----
                "HashMap" | "HashSet" => {
                    // Inside a closure fn, or in any non-test type position
                    // of a file that hosts closure fns (struct fields and
                    // signatures are state those fns read and write). `use`
                    // lines fall in the latter bucket deliberately: the
                    // import is what brings the container in.
                    let in_scope = d1.enabled()
                        && file_det
                        && !in_test
                        && (cur_det || cur_fn.is_none() || pending_fn.is_some());
                    if in_scope
                        && !allowed(&d1, rel_path, cur_fn.as_deref())
                        && seen_d1.insert((t.line, t.text.clone()))
                    {
                        findings.push(Finding {
                            rule: "det_hash_container",
                            file: rel_path.to_string(),
                            line: t.line,
                            message: format!(
                                "`{}` {} (D1): RandomState iteration order differs per \
                                 process, so anything it feeds loses bit-identity — use \
                                 the BTree equivalent or sort before iterating{}",
                                t.text,
                                d1_position(cur_fn.as_deref(), cur_det),
                                via_note(graph, rel_path, cur_fn.as_deref()),
                            ),
                        });
                    }
                }
                // ---- D2: ambient nondeterminism in the closure ----
                "Instant" | "SystemTime" | "available_parallelism" | "thread" => {
                    let pat: Option<&str> = match t.text.as_str() {
                        "Instant" => (sig.get(i + 1).is_some_and(|n| n.is_punct(':'))
                            && sig.get(i + 2).is_some_and(|n| n.is_punct(':')))
                        .then_some("Instant::now"),
                        "SystemTime" => Some("SystemTime"),
                        "available_parallelism" => Some("available_parallelism"),
                        "thread" => (sig.get(i + 1).is_some_and(|n| n.is_punct(':'))
                            && sig.get(i + 2).is_some_and(|n| n.is_punct(':'))
                            && sig.get(i + 3).is_some_and(|n| n.is_ident("current")))
                        .then_some("thread::current"),
                        _ => None,
                    };
                    if let Some(what) = pat {
                        if d2.enabled()
                            && cur_det
                            && !in_test
                            && !allowed(&d2, rel_path, cur_fn.as_deref())
                        {
                            findings.push(Finding {
                                rule: "det_ambient",
                                file: rel_path.to_string(),
                                line: t.line,
                                message: format!(
                                    "`{what}` in deterministic-closure fn `{}` (D2): \
                                     wall-clock, thread identity and host parallelism \
                                     change between runs — thread sim time through \
                                     explicit state, or add a reviewed waiver for \
                                     timing/host-sizing functions{}",
                                    cur_fn.as_deref().unwrap_or("?"),
                                    via_note(graph, rel_path, cur_fn.as_deref()),
                                ),
                            });
                        }
                    }
                }
                // ---- D3: float reductions without a fixed-order note ----
                "sum" | "product" | "fold" | "reduce"
                    if d3.enabled()
                        && cur_det
                        && !in_test
                        && i > 0
                        && sig[i - 1].is_punct('.')
                        && is_call_head(&sig, i)
                        && stmt_window_has_float(&sig, i)
                        && !has_order_comment(&lines, t.line)
                        && !allowed(&d3, rel_path, cur_fn.as_deref()) =>
                {
                    findings.push(Finding {
                        rule: "det_float_order",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "float `.{}()` in deterministic-closure fn `{}` (D3): \
                             float addition is non-associative, so the reduction \
                             order must be fixed — reduce in shard/index order and \
                             state it in an `// ORDER:` comment, or add a waiver",
                            t.text,
                            cur_fn.as_deref().unwrap_or("?"),
                        ),
                    });
                }
                // ---- D5 (panic half): transitive no-panic ----
                "unwrap" | "expect"
                    if d5.enabled()
                        && cur_det
                        && !r3_covers
                        && !in_test
                        && i > 0
                        && sig[i - 1].is_punct('.')
                        && sig.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && !allowed(&d5, rel_path, cur_fn.as_deref()) =>
                {
                    findings.push(Finding {
                        rule: "det_transitive",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "`.{}()` in fn `{}`, reachable from a #[deterministic] \
                             root (D5): a panic mid-merge tears the digest state — \
                             handle the None/Err case or waive with the invariant \
                             that makes it unreachable{}",
                            t.text,
                            cur_fn.as_deref().unwrap_or("?"),
                            via_note(graph, rel_path, cur_fn.as_deref()),
                        ),
                    });
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if d5.enabled()
                        && cur_det
                        && !r3_covers
                        && !in_test
                        && sig.get(i + 1).is_some_and(|n| n.is_punct('!'))
                        && !allowed(&d5, rel_path, cur_fn.as_deref()) =>
                {
                    findings.push(Finding {
                        rule: "det_transitive",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "`{}!` in fn `{}`, reachable from a #[deterministic] \
                             root (D5): deterministic-closure code must not contain \
                             panicking macros{}",
                            t.text,
                            cur_fn.as_deref().unwrap_or("?"),
                            via_note(graph, rel_path, cur_fn.as_deref()),
                        ),
                    });
                }
                _ => {}
            },
            _ => {}
        }

        // D4: sync discipline in the listed concurrency modules. Checked
        // outside the ident match so it cannot shadow the D1/D2/D5 arms.
        if d4_applies && !in_test && t.kind == TokKind::Ident {
            let label: Option<String> = match t.text.as_str() {
                "Mutex" | "RwLock" | "Condvar" => Some(t.text.clone()),
                "Relaxed" => Some("Ordering::Relaxed".to_string()),
                "spawn"
                    if i >= 3
                        && sig[i - 1].is_punct(':')
                        && sig[i - 2].is_punct(':')
                        && sig[i - 3].is_ident("thread") =>
                {
                    Some("thread::spawn".to_string())
                }
                s if s.starts_with("Atomic") && s.len() > "Atomic".len() => Some(t.text.clone()),
                _ => None,
            };
            if let Some(what) = label {
                if !allowed(&d4, rel_path, cur_fn.as_deref())
                    && seen_d4.insert((t.line, what.clone()))
                {
                    findings.push(Finding {
                        rule: "det_sync",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "`{what}` in concurrency module (D4): merged counters must \
                             flow through scoped joins or ordered channels, never shared \
                             mutable state — locks, relaxed atomics and detached threads \
                             admit schedule-dependent results; add a reviewed waiver if \
                             the value provably never reaches a digest"
                        ),
                    });
                }
            }
        }

        // D5 (panic half): division/modulo inside an index expression, same
        // predicate as R3 but scoped by the closure instead of module lists.
        if t.is_punct('[') && d5.enabled() && cur_det && !r3_covers && !in_test {
            let is_index = i > 0
                && match &sig[i - 1].kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&sig[i - 1].text.as_str()),
                    TokKind::Punct(']') | TokKind::Punct(')') => true,
                    _ => false,
                };
            if is_index && !allowed(&d5, rel_path, cur_fn.as_deref()) {
                let (_, end) = scan_group(&sig, i);
                if let Some(bad) =
                    sig[i..end].iter().find(|x| x.is_punct('/') || x.is_punct('%'))
                {
                    findings.push(Finding {
                        rule: "det_transitive",
                        file: rel_path.to_string(),
                        line: bad.line,
                        message: format!(
                            "division/modulo inside an index expression in fn `{}`, \
                             reachable from a #[deterministic] root (D5): hoist the \
                             quotient into a named local so the bounds reasoning is \
                             visible",
                            cur_fn.as_deref().unwrap_or("?"),
                        ),
                    });
                }
            }
        }

        // D5 (alloc half): heap allocation in hot-closure helpers that are
        // not #[hot_path]-marked themselves (R4 owns the marked roots).
        if d5.enabled()
            && cur_hot
            && !cur_hot_root
            && !in_test
            && !allowed(&d5, rel_path, cur_fn.as_deref())
        {
            if let Some(what) = alloc_pattern(&sig, i) {
                findings.push(Finding {
                    rule: "det_transitive",
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "heap allocation (`{what}`) in fn `{}`, reachable from a \
                         #[hot_path] root (D5): the no-alloc obligation propagates \
                         through the call graph — preallocate in the constructor or \
                         waive with a justification{}",
                        cur_fn.as_deref().unwrap_or("?"),
                        hot_via_note(graph, rel_path, cur_fn.as_deref()),
                    ),
                });
            }
        }

        i += 1;
    }
    findings
}

/// Position phrase for D1 diagnostics.
fn d1_position(cur_fn: Option<&str>, cur_det: bool) -> String {
    match cur_fn {
        Some(f) if cur_det => format!("in deterministic-closure fn `{f}`"),
        _ => "in a type/signature position of a file with deterministic-closure functions"
            .to_string(),
    }
}

/// `; obligation arrived via `X`` — how the closure reached this function.
fn via_note(graph: &CallGraph, file: &str, cur_fn: Option<&str>) -> String {
    cur_fn
        .and_then(|f| graph.obligation(file, f).det_via)
        .map(|v| format!("; obligation arrived via `{v}`"))
        .unwrap_or_default()
}

/// Same as [`via_note`] for the hot closure.
fn hot_via_note(graph: &CallGraph, file: &str, cur_fn: Option<&str>) -> String {
    cur_fn
        .and_then(|f| graph.obligation(file, f).hot_via)
        .map(|v| format!("; obligation arrived via `{v}`"))
        .unwrap_or_default()
}

/// Whether `sig[i]` is followed by a call's `(`, allowing `::<T>` turbofish.
fn is_call_head(sig: &[&Token], i: usize) -> bool {
    if sig.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return true;
    }
    if sig.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && sig.get(i + 2).is_some_and(|n| n.is_punct(':'))
        && sig.get(i + 3).is_some_and(|n| n.is_punct('<'))
    {
        let mut d = 0i32;
        let mut j = i + 3;
        while j < sig.len() {
            if sig[j].is_punct('<') {
                d += 1;
            } else if sig[j].is_punct('>') && !(j > 0 && sig[j - 1].is_punct('-')) {
                d -= 1;
                if d == 0 {
                    return sig.get(j + 1).is_some_and(|n| n.is_punct('('));
                }
            }
            j += 1;
        }
    }
    false
}

/// Whether the statement containing `sig[i]` mentions `f32`/`f64` — the
/// cheap "is this reduction over floats" test. The window runs from the
/// previous `;`/`{`/`}` to the next `;` at the same nesting.
fn stmt_window_has_float(sig: &[&Token], i: usize) -> bool {
    let start = (0..i)
        .rev()
        .find(|&j| sig[j].is_punct(';') || sig[j].is_punct('{') || sig[j].is_punct('}'))
        .map_or(0, |j| j + 1);
    let end = (i..sig.len())
        .find(|&j| sig[j].is_punct(';') || sig[j].is_punct('{'))
        .unwrap_or(sig.len());
    sig[start..end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
}

/// Whether an `// ORDER:` comment sits within the 3 lines above `line` (the
/// D3 analogue of R1's `// SAFETY:` convention: state why the order is
/// fixed).
fn has_order_comment(lines: &[&str], line: u32) -> bool {
    let idx = line as usize - 1;
    let lo = idx.saturating_sub(3);
    let hi = (idx + 1).min(lines.len());
    lines[lo..hi].iter().any(|l| {
        let c = l.trim_start();
        c.starts_with("//") && c.contains("ORDER:")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> =
            files.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        CallGraph::build(&owned)
    }

    fn cfg(toml: &str) -> Config {
        Config::parse(toml).expect("test config parses")
    }

    #[test]
    fn d1_fires_in_bodies_and_type_positions_of_det_files() {
        let src = "use std::collections::HashMap;\n\
                   struct Cache { m: HashMap<u64, u64> }\n\
                   #[deterministic]\nfn root() { let s: HashMap<u8, u8> = HashMap::new(); }\n";
        let g = graph(&[("crates/x/src/a.rs", src)]);
        let f = check_file("crates/x/src/a.rs", src, &cfg(""), &g);
        let d1: Vec<_> = f.iter().filter(|x| x.rule == "det_hash_container").collect();
        // use line, field line, body line (per-line dedup collapses the
        // double mention on the body line).
        assert_eq!(d1.len(), 3, "{f:?}");
    }

    #[test]
    fn d1_silent_without_det_fns_or_with_waiver() {
        let src = "use std::collections::HashMap;\nfn free() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let g = graph(&[("crates/x/src/a.rs", src)]);
        assert!(check_file("crates/x/src/a.rs", src, &cfg(""), &g).is_empty());

        let src2 = "#[deterministic]\nfn root() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let g2 = graph(&[("crates/x/src/a.rs", src2)]);
        let c = cfg("[rules.det_hash_container]\nallow = [\"a.rs::root\"]\n");
        assert!(check_file("crates/x/src/a.rs", src2, &c, &g2).is_empty());
    }

    #[test]
    fn d2_fires_on_each_ambient_source_only_in_closure() {
        let src = "#[deterministic]\nfn root() {\n    let t = Instant::now();\n    \
                   let s = SystemTime::now();\n    let id = thread::current();\n    \
                   let n = available_parallelism();\n}\n\
                   fn cold() { let t = Instant::now(); }\n";
        let g = graph(&[("crates/x/src/a.rs", src)]);
        let f = check_file("crates/x/src/a.rs", src, &cfg(""), &g);
        let d2: Vec<_> = f.iter().filter(|x| x.rule == "det_ambient").collect();
        assert_eq!(d2.len(), 4, "{f:?}");
    }

    #[test]
    fn d3_fires_on_float_reduction_and_order_comment_excuses() {
        let src = "#[deterministic]\nfn root(xs: &[f64]) -> f64 {\n    \
                   let bad: f64 = xs.iter().sum();\n    \
                   // ORDER: slice order is shard order, fixed by construction.\n    \
                   let good: f64 = xs.iter().sum();\n    \
                   let ints: u64 = xs.iter().map(|x| *x as u64).sum::<u64>();\n    \
                   bad + good + ints as f64\n}\n";
        let g = graph(&[("crates/x/src/a.rs", src)]);
        let f = check_file("crates/x/src/a.rs", src, &cfg(""), &g);
        let d3: Vec<_> = f.iter().filter(|x| x.rule == "det_float_order").collect();
        assert_eq!(d3.len(), 1, "{f:?}");
        assert_eq!(d3[0].line, 3);
    }

    #[test]
    fn d4_fires_only_in_listed_modules() {
        let src = "fn f() {\n    let m = Mutex::new(0);\n    let a = AtomicU64::new(0);\n    \
                   a.load(Ordering::Relaxed);\n    std::thread::spawn(|| {});\n}\n";
        let g = graph(&[("crates/x/src/pipe.rs", src)]);
        let c = cfg("[rules.det_sync]\nmodules = [\"pipe.rs\"]\n");
        let f = check_file("crates/x/src/pipe.rs", src, &c, &g);
        let d4: Vec<_> = f.iter().filter(|x| x.rule == "det_sync").collect();
        assert_eq!(d4.len(), 4, "{f:?}");
        // Same file without the module listing: silent.
        assert!(check_file("crates/x/src/pipe.rs", src, &cfg(""), &g).is_empty());
    }

    #[test]
    fn d5_propagates_no_panic_two_hops_and_respects_r3_modules() {
        let src = "#[deterministic]\nfn root() { mid(); }\nfn mid() { leaf(); }\n\
                   fn leaf(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let g = graph(&[("crates/x/src/a.rs", src)]);
        let f = check_file("crates/x/src/a.rs", src, &cfg(""), &g);
        let d5: Vec<_> = f.iter().filter(|x| x.rule == "det_transitive").collect();
        assert_eq!(d5.len(), 1, "{f:?}");
        assert!(d5[0].message.contains("via `mid`"), "{}", d5[0].message);
        // The same file listed as an R3 module hands jurisdiction to R3.
        let c = cfg("[rules.no_panic]\nmodules = [\"a.rs\"]\n");
        let f2 = check_file("crates/x/src/a.rs", src, &c, &g);
        assert!(f2.iter().all(|x| x.rule != "det_transitive"), "{f2:?}");
    }

    #[test]
    fn d5_propagates_no_alloc_to_unmarked_hot_helpers() {
        let src = "#[hot_path]\nfn hot() { helper(); }\n\
                   fn helper() { let v: Vec<u8> = Vec::new(); }\n";
        let g = graph(&[("crates/x/src/a.rs", src)]);
        let f = check_file("crates/x/src/a.rs", src, &cfg(""), &g);
        let d5: Vec<_> = f.iter().filter(|x| x.rule == "det_transitive").collect();
        assert_eq!(d5.len(), 1, "{f:?}");
        assert!(d5[0].message.contains("Vec::new"), "{}", d5[0].message);
    }
}
