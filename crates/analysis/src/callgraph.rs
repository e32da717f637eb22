//! Workspace call-graph construction over the lexed token stream.
//!
//! The determinism rules (D1–D5, [`crate::rules_determinism`]) need to know
//! which functions can execute *on behalf of* a `#[deterministic]` or
//! `#[hot_path]` root — a transitive property the per-module lists of rules
//! R3/R4 cannot express. This module builds that reachability relation with
//! the same no-`syn` constraint as the rest of the crate: a structural walk
//! over [`crate::lexer`] tokens that extracts every function (free or
//! associated), its marker attributes, and its call sites, then resolves
//! calls by name with deliberately asymmetric precision:
//!
//! * **Bare calls** (`demux_stream(...)`) resolve only to *free* functions —
//!   same file first, then same crate, then workspace-wide (a cross-crate
//!   bare call implies a `use` import the lexer doesn't track).
//! * **Path calls** (`Simulator::new(...)`, `zipf::zeta(...)`) resolve only
//!   when the qualifier names something the workspace defines: an `impl`
//!   type, a module file stem, an `icp_*` crate alias, or
//!   `self`/`Self`/`crate`/`super`. Unknown qualifiers — `std`, `thread`,
//!   `mem`, ... — produce **no edge**, so `std::thread::spawn` can never be
//!   confused with a workspace `spawn` method.
//! * **Method calls** (`.fill_batch(...)`) resolve to every workspace
//!   function of that name that takes `self`, across crates — receiver types
//!   are unknown, so this over-approximates; obligations may reach more
//!   functions than strictly necessary, never fewer, which is the sound
//!   direction for a deny-by-default lint (waivers handle the slack).
//!
//! `#[cfg(test)]` functions are excluded as both callers and callees; the
//! closures are plain BFS from the annotated roots, remembering one example
//! caller per member so diagnostics can show how an obligation arrived.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{lex, TokKind, Token};
use crate::rules::scan_group;

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — unqualified; resolves to free functions only.
    Bare,
    /// `qual::name(...)` — resolves via the qualifying path.
    Path {
        /// Last path segment before the function name (`zipf`, `Instant`).
        qualifier: String,
        /// First segment of the whole path (`std` in `std::thread::spawn`).
        head: String,
    },
    /// `.name(...)` — method syntax; resolves to `self`-taking functions.
    Method,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Qualification at the call site.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: u32,
}

/// One function (free or associated) found in the workspace.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Head of the enclosing `impl` type, if any (`Simulator` for
    /// `impl<S: AccessStream> Simulator<S>`).
    pub impl_type: Option<String>,
    /// Workspace-relative `/`-separated file.
    pub file: String,
    /// Owning crate (`cmp-sim` for `crates/cmp-sim/...`, `(root)` for the
    /// top-level package).
    pub crate_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` (excluded from the graph).
    pub is_test: bool,
    /// Takes `self` (method).
    pub has_self: bool,
    /// Directly carries `#[deterministic]`.
    pub det_root: bool,
    /// Directly carries `#[hot_path]`.
    pub hot_root: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnInfo {
    /// `Type::name` or bare `name`, for diagnostics.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The rule obligations the closures impose on one `(file, fn)` location.
/// Same-named functions in one file are merged (over-approximation again:
/// the walker cannot tell two `fn merge` in different impls apart).
#[derive(Clone, Debug, Default)]
pub struct Obligation {
    /// Member of the `#[deterministic]` closure.
    pub det: bool,
    /// Member of the `#[hot_path]` closure.
    pub hot: bool,
    /// Directly `#[deterministic]`-marked.
    pub det_root: bool,
    /// Directly `#[hot_path]`-marked.
    pub hot_root: bool,
    /// One caller through which the deterministic obligation arrived
    /// (`None` for roots).
    pub det_via: Option<String>,
    /// One caller through which the hot obligation arrived (`None` for
    /// roots).
    pub hot_via: Option<String>,
}

/// The resolved workspace call graph plus both obligation closures.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Every extracted function.
    pub fns: Vec<FnInfo>,
    /// Resolved callee indices per function (parallel to `fns`).
    edges: Vec<Vec<usize>>,
    /// Merged obligations keyed by `(file, fn_name)`.
    obligations: BTreeMap<(String, String), Obligation>,
    /// Files containing at least one deterministic-closure function.
    det_files: BTreeSet<String>,
    /// Files containing at least one hot-closure function.
    hot_files: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the graph from `(workspace-relative path, source)` pairs.
    pub fn build(files: &[(String, String)]) -> CallGraph {
        let mut fns: Vec<FnInfo> = Vec::new();
        for (rel, src) in files {
            fns.extend(extract_fns(rel, src));
        }
        let edges = resolve_edges(&fns);
        let (det, det_via) = closure(&fns, &edges, |f| f.det_root);
        let (hot, hot_via) = closure(&fns, &edges, |f| f.hot_root);

        let mut obligations: BTreeMap<(String, String), Obligation> = BTreeMap::new();
        let mut det_files = BTreeSet::new();
        let mut hot_files = BTreeSet::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            if det[i] {
                det_files.insert(f.file.clone());
            }
            if hot[i] {
                hot_files.insert(f.file.clone());
            }
            let o = obligations.entry((f.file.clone(), f.name.clone())).or_default();
            o.det |= det[i];
            o.hot |= hot[i];
            o.det_root |= f.det_root;
            o.hot_root |= f.hot_root;
            if o.det_via.is_none() {
                o.det_via = det_via[i].map(|u| fns[u].qualified());
            }
            if o.hot_via.is_none() {
                o.hot_via = hot_via[i].map(|u| fns[u].qualified());
            }
        }
        CallGraph { fns, edges, obligations, det_files, hot_files }
    }

    /// The obligations at `(file, fn_name)`; default (none) when unknown.
    pub fn obligation(&self, file: &str, fn_name: &str) -> Obligation {
        self.obligations
            .get(&(file.to_string(), fn_name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Whether `file` contains any deterministic-closure function — the
    /// scope at which D1 also checks type positions (struct fields,
    /// signatures), since that state is plumbing for those functions.
    pub fn file_has_det(&self, file: &str) -> bool {
        self.det_files.contains(file)
    }

    /// Whether `file` contains any hot-closure function (D5's alloc half
    /// has work to do there).
    pub fn file_has_hot(&self, file: &str) -> bool {
        self.hot_files.contains(file)
    }

    /// `file::Type::fn` for every deterministic-closure member, sorted.
    pub fn det_closure_names(&self) -> Vec<String> {
        self.closure_names(|o| o.det)
    }

    /// `file::Type::fn` for every hot-closure member, sorted.
    pub fn hot_closure_names(&self) -> Vec<String> {
        self.closure_names(|o| o.hot)
    }

    fn closure_names(&self, pick: impl Fn(&Obligation) -> bool) -> Vec<String> {
        let mut out = BTreeSet::new();
        for f in self.fns.iter().filter(|f| !f.is_test) {
            if pick(&self.obligation(&f.file, &f.name)) {
                out.insert(format!("{}::{}", f.file, f.qualified()));
            }
        }
        out.into_iter().collect()
    }

    /// Resolved callee indices of `fns[i]` (for tests).
    pub fn callees(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }
}

/// BFS reachability from `root`-flagged functions; returns membership plus
/// one example predecessor per member (`None` for roots).
fn closure(
    fns: &[FnInfo],
    edges: &[Vec<usize>],
    root: impl Fn(&FnInfo) -> bool,
) -> (Vec<bool>, Vec<Option<usize>>) {
    let n = fns.len();
    let mut inc = vec![false; n];
    let mut via: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.is_test && root(f) {
            inc[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if !inc[v] {
                inc[v] = true;
                via[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (inc, via)
}

/// Identifiers that look like calls syntactically but never are (keywords,
/// `Option`/`Result` variant constructors).
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "fn", "unsafe",
    "where", "impl", "let", "else", "break", "continue", "await", "mut", "ref", "dyn", "box",
    "true", "false", "union", "pub", "use", "Some", "None", "Ok", "Err",
];

/// Crate name from a workspace-relative path.
fn crate_of(file: &str) -> String {
    let mut parts = file.split('/');
    if parts.next() == Some("crates") {
        if let Some(c) = parts.next() {
            return c.to_string();
        }
    }
    "(root)".to_string()
}

/// File stem (`zipf` for `crates/numeric/src/zipf.rs`).
fn stem_of(file: &str) -> &str {
    let name = file.rsplit('/').next().unwrap_or(file);
    name.strip_suffix(".rs").unwrap_or(name)
}

/// Scope kinds the extraction walker tracks.
enum ScopeKind {
    /// Function body; index into the `fns` vec.
    Fn(usize),
    /// `impl` block with its type head.
    Impl(Option<String>),
    /// `mod` block.
    Mod,
}

struct CgScope {
    open_depth: u32,
    is_test: bool,
    kind: ScopeKind,
}

/// Extracts every function in one file, with attributes and call sites.
fn extract_fns(file: &str, src: &str) -> Vec<FnInfo> {
    let toks = lex(src);
    let sig: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let crate_name = crate_of(file);

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut scopes: Vec<CgScope> = Vec::new();
    let mut depth: u32 = 0;
    let mut paren_depth: u32 = 0;
    let mut bracket_depth: u32 = 0;
    let mut pending_test = false;
    let mut pending_det = false;
    let mut pending_hot = false;
    let mut pending_fn: Option<FnInfo> = None;
    let mut pending_impl: Option<Option<String>> = None;
    let mut pending_mod = false;

    let mut i = 0;
    while i < sig.len() {
        let t = sig[i];
        let in_test = pending_test || scopes.iter().any(|s| s.is_test);

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
                        if has("hot_path") {
                            pending_hot = true;
                        }
                        if has("deterministic") {
                            pending_det = true;
                        }
                    }
                    i = end;
                    continue;
                }
            }
            TokKind::Punct('{') => {
                depth += 1;
                if let Some(mut f) = pending_fn.take() {
                    f.is_test = f.is_test || in_test;
                    let test = f.is_test;
                    let idx = fns.len();
                    fns.push(f);
                    scopes.push(CgScope { open_depth: depth, is_test: test, kind: ScopeKind::Fn(idx) });
                    pending_test = false;
                } else if let Some(ty) = pending_impl.take() {
                    scopes.push(CgScope { open_depth: depth, is_test: in_test, kind: ScopeKind::Impl(ty) });
                    pending_test = false;
                } else if pending_mod {
                    scopes.push(CgScope { open_depth: depth, is_test: in_test, kind: ScopeKind::Mod });
                    pending_mod = false;
                    pending_test = false;
                    pending_det = false;
                    pending_hot = false;
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
                // Trait method declaration / `mod m;`: no body follows.
                pending_fn = None;
                pending_mod = false;
                pending_impl = None;
                pending_test = false;
                pending_det = false;
                pending_hot = false;
            }
            TokKind::Punct('[') => bracket_depth += 1,
            TokKind::Punct(']') => bracket_depth = bracket_depth.saturating_sub(1),
            TokKind::Ident => match t.text.as_str() {
                "fn" => {
                    if let Some(name) = sig.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        let impl_type = scopes.iter().rev().find_map(|s| match &s.kind {
                            ScopeKind::Impl(ty) => Some(ty.clone()),
                            _ => None,
                        });
                        pending_fn = Some(FnInfo {
                            name: name.text.clone(),
                            impl_type: impl_type.flatten(),
                            file: file.to_string(),
                            crate_name: crate_name.clone(),
                            line: t.line,
                            is_test: in_test,
                            has_self: fn_has_self(&sig, i + 1),
                            det_root: pending_det,
                            hot_root: pending_hot,
                            calls: Vec::new(),
                        });
                        pending_det = false;
                        pending_hot = false;
                    }
                }
                "mod" => pending_mod = true,
                "impl" if pending_fn.is_none() => {
                    pending_impl = Some(parse_impl_type(&sig, i));
                }
                "struct" | "enum" | "trait" | "type" | "macro_rules" => {
                    pending_test = false;
                    pending_det = false;
                    pending_hot = false;
                }
                _ => {
                    // Call sites: attributed to the innermost enclosing fn,
                    // skipped inside signatures and #[cfg(test)] regions.
                    if pending_fn.is_none() && !in_test {
                        let cur = scopes.iter().rev().find_map(|s| match s.kind {
                            ScopeKind::Fn(idx) => Some(idx),
                            _ => None,
                        });
                        if let Some(idx) = cur {
                            if let Some(site) = call_site(&sig, i) {
                                fns[idx].calls.push(site);
                            }
                        }
                    }
                }
            },
            _ => {}
        }
        i += 1;
    }
    fns
}

/// If `sig[i]` is the callee identifier of a call expression, classify it.
fn call_site(sig: &[&Token], i: usize) -> Option<CallSite> {
    let t = sig[i];
    if CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    // Macro invocation, not a call.
    if sig.get(i + 1).is_some_and(|n| n.is_punct('!')) {
        return None;
    }
    // `name(` directly, or turbofish `name::<T>(`.
    let direct = sig.get(i + 1).is_some_and(|n| n.is_punct('('));
    let turbofish = !direct
        && sig.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && sig.get(i + 2).is_some_and(|n| n.is_punct(':'))
        && sig.get(i + 3).is_some_and(|n| n.is_punct('<'))
        && {
            let j = skip_angles(sig, i + 3);
            sig.get(j).is_some_and(|n| n.is_punct('('))
        };
    if !direct && !turbofish {
        return None;
    }

    let kind = if i > 0 && sig[i - 1].is_punct('.') {
        CallKind::Method
    } else if i >= 2 && sig[i - 1].is_punct(':') && sig[i - 2].is_punct(':') {
        // Walk the qualifying path backwards: `a::b::name(` yields
        // qualifier `b`, head `a`. A non-ident path element (`<T as X>::f`,
        // `Vec::<u8>::new`) makes the path unresolvable — no edge.
        let mut segs: Vec<String> = Vec::new();
        let mut k = i;
        while k >= 3 && sig[k - 1].is_punct(':') && sig[k - 2].is_punct(':') {
            if sig[k - 3].kind == TokKind::Ident {
                segs.push(sig[k - 3].text.clone());
                k -= 3;
            } else {
                segs.clear();
                break;
            }
        }
        match (segs.first(), segs.last()) {
            (Some(q), Some(h)) => CallKind::Path { qualifier: q.clone(), head: h.clone() },
            _ => CallKind::Path { qualifier: String::new(), head: String::new() },
        }
    } else {
        CallKind::Bare
    };
    Some(CallSite { name: t.text.clone(), kind, line: t.line })
}

/// Index one past a balanced `<...>` group starting at `open`. A `>` that is
/// part of `->` does not close the group.
fn skip_angles(sig: &[&Token], open: usize) -> usize {
    let mut d = 0i32;
    let mut j = open;
    while j < sig.len() {
        if sig[j].is_punct('<') {
            d += 1;
        } else if sig[j].is_punct('>') && !(j > 0 && sig[j - 1].is_punct('-')) {
            d -= 1;
            if d == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Whether the parameter list of the `fn` whose name sits at `name_idx`
/// starts with a `self` receiver.
fn fn_has_self(sig: &[&Token], name_idx: usize) -> bool {
    // Find the parameter `(`, skipping the generic parameter list.
    let mut j = name_idx + 1;
    let mut angle = 0i32;
    while j < sig.len() {
        if sig[j].is_punct('<') {
            angle += 1;
        } else if sig[j].is_punct('>') && !(j > 0 && sig[j - 1].is_punct('-')) {
            angle -= 1;
        } else if sig[j].is_punct('(') && angle <= 0 {
            break;
        } else if sig[j].is_punct('{') || sig[j].is_punct(';') {
            return false;
        }
        j += 1;
    }
    // Scan the first parameter (up to the first `,` at group depth 1).
    let mut d = 0i32;
    while j < sig.len() {
        match sig[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                d -= 1;
                if d == 0 {
                    return false;
                }
            }
            TokKind::Punct(',') if d == 1 => return false,
            TokKind::Ident if d == 1 && sig[j].text == "self" => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// The type head of an `impl` header at `sig[i]`: the last path segment of
/// the implemented-for type (`Finding` for `impl fmt::Display for Finding`,
/// `Simulator` for `impl<S: AccessStream> Simulator<S>`).
fn parse_impl_type(sig: &[&Token], i: usize) -> Option<String> {
    let mut j = i + 1;
    if j < sig.len() && sig[j].is_punct('<') {
        j = skip_angles(sig, j);
    }
    let (first, after) = read_type_path(sig, j);
    if sig.get(after).is_some_and(|t| t.is_ident("for")) {
        let (second, _) = read_type_path(sig, after + 1);
        second
    } else {
        first
    }
}

/// Reads a type path (`a::b::C<T>`), returning its last ident segment and
/// the index just past it. Leading `&`/`mut`/`dyn`/lifetimes are skipped.
fn read_type_path(sig: &[&Token], mut j: usize) -> (Option<String>, usize) {
    while j < sig.len()
        && (sig[j].is_punct('&')
            || sig[j].kind == TokKind::Lifetime
            || sig[j].is_ident("dyn")
            || sig[j].is_ident("mut"))
    {
        j += 1;
    }
    let mut last = None;
    while j < sig.len() {
        if sig[j].kind == TokKind::Ident && !sig[j].is_ident("for") && !sig[j].is_ident("where") {
            last = Some(sig[j].text.clone());
            j += 1;
            if j < sig.len() && sig[j].is_punct('<') {
                j = skip_angles(sig, j);
            }
            if j + 1 < sig.len() && sig[j].is_punct(':') && sig[j + 1].is_punct(':') {
                j += 2;
                continue;
            }
        }
        break;
    }
    (last, j)
}

/// Resolves every call site to workspace function indices.
fn resolve_edges(fns: &[FnInfo]) -> Vec<Vec<usize>> {
    // Indices over non-test functions.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_impl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut impl_types: BTreeSet<&str> = BTreeSet::new();
    let mut stems: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        by_name.entry(&f.name).or_default().push(i);
        if let Some(ty) = &f.impl_type {
            by_impl.entry((ty.as_str(), &f.name)).or_default().push(i);
            impl_types.insert(ty.as_str());
        }
        stems.entry(stem_of(&f.file)).or_default().push(i);
    }

    let free = |i: &usize| fns[*i].impl_type.is_none() && !fns[*i].has_self;

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (ci, caller) in fns.iter().enumerate() {
        if caller.is_test {
            continue;
        }
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for site in &caller.calls {
            let named: &[usize] = by_name.get(site.name.as_str()).map_or(&[], |v| v);
            match &site.kind {
                CallKind::Bare => {
                    // Free functions only: same file, else same crate, else
                    // anywhere (a cross-crate bare call implies a `use`).
                    let cands: Vec<usize> = named.iter().copied().filter(|i| free(i)).collect();
                    let same_file: Vec<usize> =
                        cands.iter().copied().filter(|&i| fns[i].file == caller.file).collect();
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| fns[i].crate_name == caller.crate_name)
                        .collect();
                    let pick = if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else {
                        cands
                    };
                    out.extend(pick);
                }
                CallKind::Method => {
                    // Receiver type unknown: every `self`-taking fn of this
                    // name is a possible callee, but same-crate candidates
                    // shadow cross-crate ones — common method names (`add`,
                    // `observe`, `merge`) otherwise wire unrelated crates
                    // together. Cross-crate edges survive whenever the name
                    // is locally unique, which covers the trait-impl calls
                    // the closures actually need (`fill_batch` et al. are
                    // additionally rooted by their own markers).
                    let cands: Vec<usize> =
                        named.iter().copied().filter(|&i| fns[i].has_self).collect();
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| fns[i].crate_name == caller.crate_name)
                        .collect();
                    out.extend(if same_crate.is_empty() { cands } else { same_crate });
                }
                CallKind::Path { qualifier, head } => {
                    if qualifier.is_empty() || matches!(head.as_str(), "std" | "core" | "alloc") {
                        continue;
                    }
                    if qualifier == "Self" {
                        if let Some(ty) = &caller.impl_type {
                            if let Some(v) = by_impl.get(&(ty.as_str(), site.name.as_str())) {
                                out.extend(v.iter().copied());
                            }
                        }
                    } else if matches!(qualifier.as_str(), "crate" | "super" | "self") {
                        out.extend(
                            named
                                .iter()
                                .copied()
                                .filter(|i| free(i) && fns[*i].crate_name == caller.crate_name),
                        );
                    } else if impl_types.contains(qualifier.as_str()) {
                        if let Some(v) = by_impl.get(&(qualifier.as_str(), site.name.as_str())) {
                            out.extend(v.iter().copied());
                        }
                    } else if let Some(alias) = qualifier.strip_prefix("icp_") {
                        let krate = alias.replace('_', "-");
                        out.extend(named.iter().copied().filter(|i| {
                            free(i)
                                && (fns[*i].crate_name == krate || fns[*i].crate_name == alias)
                        }));
                    } else if let Some(v) = stems.get(qualifier.as_str()) {
                        // Module file stem (`zipf::zeta(...)`).
                        let in_stem: BTreeSet<usize> = v.iter().copied().collect();
                        out.extend(
                            named.iter().copied().filter(|i| free(i) && in_stem.contains(i)),
                        );
                    }
                    // Any other qualifier (std modules like `thread`, `mem`,
                    // external types): no edge.
                }
            }
        }
        edges[ci] = out.into_iter().collect();
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> =
            files.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        CallGraph::build(&owned)
    }

    #[test]
    fn extracts_fns_with_attrs_impl_types_and_self() {
        let g = graph(&[(
            "crates/x/src/a.rs",
            "struct S;\n\
             impl S {\n    #[deterministic]\n    pub fn run(&mut self, n: u32) -> u32 { helper(n) }\n\
             \n    fn assoc(n: u32) -> u32 { n }\n}\n\
             #[hot_path]\nfn helper(n: u32) -> u32 { n + 1 }\n",
        )]);
        let run = g.fns.iter().find(|f| f.name == "run").expect("run found");
        assert_eq!(run.impl_type.as_deref(), Some("S"));
        assert!(run.has_self && run.det_root && !run.hot_root);
        let assoc = g.fns.iter().find(|f| f.name == "assoc").expect("assoc found");
        assert!(!assoc.has_self);
        let helper = g.fns.iter().find(|f| f.name == "helper").expect("helper found");
        assert!(helper.hot_root && !helper.has_self && helper.impl_type.is_none());
    }

    #[test]
    fn trait_impl_attributes_to_the_implementing_type() {
        let g = graph(&[(
            "crates/x/src/a.rs",
            "impl std::fmt::Display for Wide<'_> {\n    fn fmt(&self) -> u32 { 0 }\n}\n\
             impl<S: Tr> Gen<S> {\n    fn go(&self) {}\n}\n",
        )]);
        assert_eq!(g.fns[0].impl_type.as_deref(), Some("Wide"));
        assert_eq!(g.fns[1].impl_type.as_deref(), Some("Gen"));
    }

    #[test]
    fn obligations_propagate_two_hops_and_skip_std_paths() {
        let g = graph(&[(
            "crates/x/src/a.rs",
            "#[deterministic]\nfn root() { mid(); std::thread::spawn(|| {}); }\n\
             fn mid() { leaf(); }\nfn leaf() {}\nfn spawn() {}\nfn unrelated() {}\n",
        )]);
        assert!(g.obligation("crates/x/src/a.rs", "root").det_root);
        assert!(g.obligation("crates/x/src/a.rs", "mid").det);
        let leaf = g.obligation("crates/x/src/a.rs", "leaf");
        assert!(leaf.det, "two-hop propagation");
        assert_eq!(leaf.det_via.as_deref(), Some("mid"));
        // `std::thread::spawn` must not resolve to the local free `spawn`.
        assert!(!g.obligation("crates/x/src/a.rs", "spawn").det);
        assert!(!g.obligation("crates/x/src/a.rs", "unrelated").det);
    }

    #[test]
    fn methods_resolve_cross_crate_to_self_takers_only() {
        let g = graph(&[
            (
                "crates/a/src/sim.rs",
                "struct Sim;\nimpl Sim {\n    #[deterministic]\n    fn drive(&mut self, s: &mut St) { s.fill_batch(); }\n}\n",
            ),
            (
                "crates/b/src/gen.rs",
                "struct St;\nimpl St {\n    pub fn fill_batch(&mut self) {}\n    fn fill_batch_free() {}\n}\n\
                 fn fill_batch() {}\n",
            ),
        ]);
        assert!(g.obligation("crates/b/src/gen.rs", "fill_batch").det);
        // The free fn shares the name but is merged under the same key;
        // the non-self assoc fn is untouched.
        assert!(!g.obligation("crates/b/src/gen.rs", "fill_batch_free").det);
    }

    #[test]
    fn path_calls_resolve_via_impl_type_stem_and_crate_alias() {
        let g = graph(&[
            (
                "crates/a/src/shard.rs",
                "#[deterministic]\nfn merge() {\n    Acc::combine();\n    zeta::table();\n    icp_numeric::interp();\n}\n",
            ),
            (
                "crates/b/src/acc.rs",
                "struct Acc;\nimpl Acc {\n    fn combine() {}\n}\n",
            ),
            ("crates/numeric/src/zeta.rs", "pub fn table() {}\npub fn interp() {}\n"),
        ]);
        assert!(g.obligation("crates/b/src/acc.rs", "combine").det);
        assert!(g.obligation("crates/numeric/src/zeta.rs", "table").det);
        assert!(g.obligation("crates/numeric/src/zeta.rs", "interp").det);
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let g = graph(&[(
            "crates/x/src/a.rs",
            "#[deterministic]\nfn root() { helper(); }\nfn helper() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::root(); victim(); }\n    fn victim() {}\n}\n",
        )]);
        assert!(g.obligation("crates/x/src/a.rs", "helper").det);
        assert!(!g.obligation("crates/x/src/a.rs", "victim").det);
        assert!(g.det_closure_names().iter().all(|n| !n.contains("victim")));
    }

    #[test]
    fn hot_closure_is_separate_and_file_has_det_tracks_files() {
        let g = graph(&[(
            "crates/x/src/a.rs",
            "#[hot_path]\nfn hot() { shared(); }\n#[deterministic]\nfn det() {}\nfn shared() {}\n",
        )]);
        let shared = g.obligation("crates/x/src/a.rs", "shared");
        assert!(shared.hot && !shared.det);
        assert!(g.file_has_det("crates/x/src/a.rs"));
        assert!(!g.file_has_det("crates/x/src/b.rs"));
    }

    #[test]
    fn turbofish_and_bare_resolution_prefer_same_file() {
        let g = graph(&[
            (
                "crates/x/src/a.rs",
                "#[deterministic]\nfn root() { pack::<u32>(); }\nfn pack() {}\n",
            ),
            ("crates/y/src/b.rs", "fn pack() {}\n"),
        ]);
        assert!(g.obligation("crates/x/src/a.rs", "pack").det);
        assert!(!g.obligation("crates/y/src/b.rs", "pack").det, "same-file wins");
    }
}
