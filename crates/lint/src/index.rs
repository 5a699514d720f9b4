//! Workspace symbol index and the structural concurrency rules (D8, D10)
//! plus the cross-artifact metrics audit (D12).
//!
//! The per-file token rules in `rules.rs` cannot see a lock held across a
//! callback. This module extracts per-file *facts* — lock-wrapper functions
//! (anything returning a `MutexGuard`), `keebo.*` metric-name literals —
//! aggregates them per crate, and runs the rules that need that context:
//!
//! * **D8 lock-order** — a static acquisition graph per crate (an edge for
//!   every lock taken while another guard is live); any cycle — two locks
//!   ever taken in both orders, or a re-acquisition of a held lock — fails.
//! * **D10 guard-across-boundary** — no `MutexGuard` live across
//!   `catch_unwind`, a channel `.send(..)`, or a call of a caller-supplied
//!   callback parameter (`impl Fn*`). The PR-8 `BatchExit`/`GaugeGuard`
//!   ordering bug is exactly this shape.
//! * **D12 metrics-inventory** — every `keebo.*` metric-name string in
//!   source must be registered with one consistent kind and documented in
//!   DESIGN.md's metrics inventory table; stale inventory rows are flagged.
//!
//! Guard tracking is intentionally approximate but deterministic: `let`-bound
//! guards live to the end of their block (or an explicit `drop(name)`),
//! unbound guard temporaries live to the end of their statement, poison
//! recovery chains (`.unwrap_or_else(PoisonError::into_inner)` and friends)
//! stay guard-valued, reassignment (`g = cv.wait(g)`) keeps a guard alive,
//! and the place expression of `*lock(&x) = rhs` holds no guard during
//! `rhs` (Rust evaluates the right side first). Closures are fresh contexts:
//! a held-lock set never crosses a `fn`/closure boundary.

use crate::lexer::{Tok, TokKind};
use crate::parse::{BlockKind, FileStructure};
use crate::rules::{matching_close_paren, FileInfo};
use std::collections::{BTreeMap, BTreeSet};

/// Metadata for the rules implemented here (D11 lives in the `rules.rs`
/// table; it is a plain token rule).
pub const D8_MESSAGE: &str = "locks acquired in conflicting orders within this crate: a cycle in the static acquisition graph can deadlock — pick one global order and stick to it";
pub const D10_MESSAGE: &str = "MutexGuard live across an unwind/callback/channel boundary: a panic or re-entrant call strands or deadlocks the lock — drop or scope the guard first";
pub const D12_MESSAGE: &str = "metric drifted from DESIGN.md's `keebo.*` inventory — registration names, kinds, and inventory rows must agree";

/// One finding from a structural/workspace rule, shaped like a
/// [`crate::diag::Diagnostic`] minus nothing — the engine copies it over.
#[derive(Debug, Clone)]
pub struct StructFinding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub name: &'static str,
    pub snippet: String,
    pub message: &'static str,
}

/// One `keebo.*` metric-name literal in source.
#[derive(Debug, Clone)]
pub struct MetricUse {
    pub name: String,
    /// `counter` / `gauge` / `histogram` when the literal sits directly in
    /// that registration call; `None` when the name travels through a
    /// variable first.
    pub kind: Option<&'static str>,
    pub line: u32,
    pub col: u32,
}

/// One row of the metrics inventory (DESIGN.md table or, in fixture mode,
/// a `// lint-inventory:` directive).
#[derive(Debug, Clone)]
pub struct InventoryRow {
    pub name: String,
    /// Lowercased kind cell; empty when unspecified.
    pub kind: String,
    pub file: String,
    pub line: u32,
}

/// An edge in the lock-acquisition graph: `acquired` was taken at the site
/// while a guard on `held` was live.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
}

/// Everything the workspace rules need to know about one file.
#[derive(Debug)]
pub struct FileFacts {
    /// Real repo-relative path (diagnostics anchor).
    pub real_path: String,
    /// Classification by the pretend path (rule scoping).
    pub info: FileInfo,
    pub tokens: Vec<Tok>,
    pub structure: FileStructure,
    /// Functions in this file whose return type mentions `MutexGuard`.
    pub lock_wrappers: BTreeSet<String>,
    /// `keebo.*` metric-name literals (non-test positions only).
    pub metrics: Vec<MetricUse>,
}

impl FileFacts {
    pub fn collect(
        real_path: &str,
        info: FileInfo,
        tokens: Vec<Tok>,
        structure: FileStructure,
    ) -> FileFacts {
        let lock_wrappers = find_lock_wrappers(&tokens, &structure);
        let metrics = find_metric_uses(&tokens);
        FileFacts {
            real_path: real_path.to_string(),
            info,
            tokens,
            structure,
            lock_wrappers,
            metrics,
        }
    }
}

/// Functions whose declared return type mentions `MutexGuard`: calling one
/// is a lock acquisition. Checks the slice between the parameter list's `)`
/// and the body `{`, so a function merely *taking* a guard does not count.
fn find_lock_wrappers(tokens: &[Tok], structure: &FileStructure) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for b in &structure.blocks {
        let BlockKind::Fn { ref name } = b.kind else {
            continue;
        };
        let sig = &tokens[b.intro..b.open.min(tokens.len())];
        let Some(p_open) = sig.iter().position(|t| t.is_punct('(')) else {
            continue;
        };
        let Some(p_close) = matching_close_paren(sig, p_open) else {
            continue;
        };
        if sig[p_close..].iter().any(|t| t.is_ident("MutexGuard")) {
            out.insert(name.clone());
        }
    }
    out
}

/// `keebo.*` string literals, with the registration kind when the literal
/// sits directly inside `counter(..)` / `gauge(..)` / `histogram(..)`.
fn find_metric_uses(tokens: &[Tok]) -> Vec<MetricUse> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(content) = t.str_content() else {
            continue;
        };
        // A bare `"keebo."` is the audit's own prefix probe (this file, the
        // lexer), not a metric registration — require an actual name.
        if !content.starts_with("keebo.") || content.len() == "keebo.".len() {
            continue;
        }
        let kind = if i >= 2 && tokens[i - 1].is_punct('(') {
            match tokens[i - 2].text.as_str() {
                "counter" => Some("counter"),
                "gauge" => Some("gauge"),
                "histogram" => Some("histogram"),
                _ => None,
            }
        } else {
            None
        };
        out.push(MetricUse {
            name: content.to_string(),
            kind,
            line: t.line,
            col: t.col,
        });
    }
    out
}

// ---- guard tracking (D8 edges, D10) ----------------------------------------

/// Output of the concurrency walk over one file.
#[derive(Debug, Default)]
pub struct ConcurrencyReport {
    pub edges: Vec<LockEdge>,
    pub findings: Vec<StructFinding>,
}

#[derive(Debug)]
struct Guard {
    /// `let`-bound name, `None` for statement temporaries.
    name: Option<String>,
    lock: String,
    /// Block index owning the binding (named guards die at its `}`).
    born_block: usize,
    /// Temporaries die at the next statement boundary.
    temp: bool,
}

/// Walks every `fn`/closure body in `facts`, tracking live guards, and
/// reports D10 findings plus the lock-acquisition edges for D8.
pub fn scan_concurrency(facts: &FileFacts, wrappers: &BTreeSet<String>) -> ConcurrencyReport {
    let mut report = ConcurrencyReport::default();
    let toks = &facts.tokens;
    let st = &facts.structure;
    // Map from `{` token index to block index, to skip nested body roots.
    let open_to_block: BTreeMap<usize, usize> = st
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| (b.open, bi))
        .collect();

    for root in st.body_roots() {
        let block = &st.blocks[root];
        if toks.get(block.open).is_some_and(|t| t.in_test) {
            continue;
        }
        let callback_params = match block.kind {
            BlockKind::Fn { .. } => callback_param_names(&toks[block.intro..block.open]),
            _ => BTreeSet::new(),
        };
        let mut guards: Vec<Guard> = Vec::new();
        let mut j = block.open + 1;
        let end = block.close.min(toks.len());
        while j < end {
            // Nested fn/closure bodies are fresh contexts — skip them here;
            // they are walked as their own roots.
            if let Some(&bi) = open_to_block.get(&j) {
                if st.blocks[bi].is_body_root() {
                    j = st.blocks[bi].close.saturating_add(1).max(j + 1);
                    continue;
                }
            }
            let t = &toks[j];

            if t.is_punct(';') || t.is_punct('{') {
                guards.retain(|g| !g.temp);
                j += 1;
                continue;
            }
            if t.is_punct('}') {
                let closing = st.block_at(j);
                guards.retain(|g| !g.temp && Some(g.born_block) != closing);
                j += 1;
                continue;
            }

            // Explicit `drop(name)`.
            if t.is_ident("drop")
                && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(j + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(victim) = toks.get(j + 2).filter(|n| n.kind == TokKind::Ident) {
                    guards.retain(|g| g.name.as_deref() != Some(victim.text.as_str()));
                }
            }

            // Lock acquisition: `.lock()` method or wrapper call.
            if let Some(acq) = detect_acquisition(toks, j, wrappers) {
                for g in &guards {
                    report.edges.push(LockEdge {
                        held: g.lock.clone(),
                        acquired: acq.lock.clone(),
                        file: facts.real_path.clone(),
                        line: t.line,
                        col: t.col,
                    });
                }
                if !acq.place_expr {
                    guards.push(Guard {
                        name: acq.binding.clone(),
                        lock: acq.lock,
                        born_block: st.block_at(j).unwrap_or(usize::MAX),
                        temp: acq.binding.is_none(),
                    });
                }
                j += 1;
                continue;
            }

            // D10: boundary crossings while a guard is live.
            if !guards.is_empty() {
                let crossing = if t.is_ident("catch_unwind")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    Some("catch_unwind(..)".to_string())
                } else if t.is_ident("send")
                    && j >= 1
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    Some(".send(..)".to_string())
                } else if t.kind == TokKind::Ident
                    && callback_params.contains(&t.text)
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                    && (j == 0 || !toks[j - 1].is_punct('.'))
                {
                    Some(format!("{}(..) callback", t.text))
                } else {
                    None
                };
                if let Some(what) = crossing {
                    // The most recent guard is the tightest-scoped offender.
                    let lock = guards.last().map(|g| g.lock.clone()).unwrap_or_default();
                    report.findings.push(StructFinding {
                        file: facts.real_path.clone(),
                        line: t.line,
                        col: t.col,
                        rule: "D10",
                        name: "guard-across-boundary",
                        snippet: format!("{what} under `{lock}` guard"),
                        message: D10_MESSAGE,
                    });
                }
            }
            j += 1;
        }
    }
    report
}

#[derive(Debug)]
struct Acquisition {
    lock: String,
    /// `let`-bound name when the statement is `let [mut] NAME = <guard>;`.
    binding: Option<String>,
    /// The place side of `*lock(&x) = rhs;` — never live (RHS runs first).
    place_expr: bool,
}

/// Recognizes a lock acquisition starting at token `j`: `recv.lock()` or a
/// call of a crate lock-wrapper fn. Returns its normalized lock identity
/// and how the resulting guard is bound.
fn detect_acquisition(toks: &[Tok], j: usize, wrappers: &BTreeSet<String>) -> Option<Acquisition> {
    let t = &toks[j];
    if t.kind != TokKind::Ident || !toks.get(j + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    let is_method = j >= 1 && toks[j - 1].is_punct('.');
    let (lock, expr_start) = if t.text == "lock" && is_method {
        let (path, start) = receiver_path(toks, j.checked_sub(2)?);
        (path, start)
    } else if !is_method && wrappers.contains(&t.text) {
        (first_arg_path(toks, j + 1), j)
    } else {
        return None;
    };
    if lock.is_empty() {
        return None;
    }

    // Extend over poison-recovery chains, which stay guard-valued.
    let mut close = matching_close_paren(toks, j + 1)?;
    loop {
        let chained = toks.get(close + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(close + 2).is_some_and(|n| {
                n.is_ident("unwrap") || n.is_ident("expect") || n.is_ident("unwrap_or_else")
            })
            && toks.get(close + 3).is_some_and(|n| n.is_punct('('));
        if !chained {
            break;
        }
        close = matching_close_paren(toks, close + 3)?;
    }

    // `*lock(&x) = rhs;` — the guard never overlaps the right-hand side.
    let place_expr = expr_start >= 1
        && toks[expr_start - 1].is_punct('*')
        && toks.get(close + 1).is_some_and(|n| n.is_punct('='))
        && !toks.get(close + 2).is_some_and(|n| n.is_punct('='));
    if place_expr {
        return Some(Acquisition {
            lock,
            binding: None,
            place_expr: true,
        });
    }

    // `let [mut] NAME = <acquisition chain> ;` → a named, block-scoped guard.
    let binding = if toks.get(close + 1).is_some_and(|n| n.is_punct(';')) {
        let mut k = expr_start;
        if k >= 1 && toks[k - 1].is_punct('&') {
            k -= 1; // `lock(&x)` has no `&` before the callee; receivers may
        }
        if k >= 2 && toks[k - 1].is_punct('=') {
            let mut n = k - 2;
            if toks[n].is_ident("mut") {
                n = n.checked_sub(1)?;
            }
            if toks[n].kind == TokKind::Ident
                && n >= 1
                && (toks[n - 1].is_ident("let") || toks[n - 1].is_ident("mut"))
            {
                Some(toks[n].text.clone())
            } else {
                None
            }
        } else {
            None
        }
    } else {
        None
    };

    Some(Acquisition {
        lock,
        binding,
        place_expr: false,
    })
}

#[derive(Debug)]
enum Seg {
    Ident(String),
    Index,
}

/// Normalized dotted path ending at token `end` (the last receiver token
/// before `.lock`): `self.shared.state` → `shared.state`,
/// `shards[i]` → `shards[_]`. Also returns the path's first token index.
fn receiver_path(toks: &[Tok], end: usize) -> (String, usize) {
    let mut segs: Vec<Seg> = Vec::new();
    let mut k = end as isize;
    let mut start = end;
    loop {
        if k < 0 {
            break;
        }
        let t = &toks[k as usize];
        if t.kind == TokKind::Ident {
            segs.push(Seg::Ident(t.text.clone()));
            start = k as usize;
            if k >= 2 && toks[(k - 1) as usize].is_punct('.') {
                k -= 2;
                continue;
            }
            if k >= 3
                && toks[(k - 1) as usize].is_punct(':')
                && toks[(k - 2) as usize].is_punct(':')
            {
                k -= 3;
                continue;
            }
            break;
        }
        if t.is_punct(']') {
            // Find the matching `[` backwards.
            let mut depth = 1usize;
            let mut b = k - 1;
            while b >= 0 && depth > 0 {
                if toks[b as usize].is_punct(']') {
                    depth += 1;
                } else if toks[b as usize].is_punct('[') {
                    depth -= 1;
                }
                if depth == 0 {
                    break;
                }
                b -= 1;
            }
            if b < 0 || depth > 0 {
                break;
            }
            segs.push(Seg::Index);
            start = b as usize;
            k = b - 1;
            continue;
        }
        break;
    }
    segs.reverse();
    (render_path(segs), start)
}

/// Normalized path of a wrapper call's first argument: `lock(&shards[i])`
/// → `shards[_]`, `lock(&self.shared.state)` → `shared.state`.
fn first_arg_path(toks: &[Tok], open: usize) -> String {
    let mut k = open + 1;
    while toks
        .get(k)
        .is_some_and(|t| t.is_punct('&') || t.is_punct('*') || t.is_ident("mut"))
    {
        k += 1;
    }
    let mut segs: Vec<Seg> = Vec::new();
    while let Some(t) = toks.get(k) {
        if t.kind == TokKind::Ident {
            segs.push(Seg::Ident(t.text.clone()));
            k += 1;
        } else if t.is_punct('.') {
            k += 1;
        } else if t.is_punct(':') && toks.get(k + 1).is_some_and(|n| n.is_punct(':')) {
            k += 2;
        } else if t.is_punct('[') {
            let Some(close) = matching_close_bracket(toks, k) else {
                break;
            };
            segs.push(Seg::Index);
            k = close + 1;
        } else {
            break;
        }
    }
    render_path(segs)
}

fn matching_close_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Joins segments (`foo`, `[_]`) into a lock identity, dropping a leading
/// `self` so `self.inner` and `inner` name the same lock.
fn render_path(segs: Vec<Seg>) -> String {
    let mut out = String::new();
    let mut first = true;
    for s in segs {
        match s {
            Seg::Ident(name) => {
                if first && name == "self" {
                    continue; // re-join below; `self` alone falls through
                }
                if !out.is_empty() {
                    out.push('.');
                }
                out.push_str(&name);
                first = false;
            }
            Seg::Index => {
                out.push_str("[_]");
                first = false;
            }
        }
    }
    if out.is_empty() {
        "self".to_string()
    } else {
        out
    }
}

/// Parameter names of a fn signature whose type mentions `Fn`/`FnMut`/
/// `FnOnce` — calling one of these is a user-callback boundary for D10.
fn callback_param_names(sig: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Some(p_open) = sig.iter().position(|t| t.is_punct('(')) else {
        return out;
    };
    let Some(p_close) = matching_close_paren(sig, p_open) else {
        return out;
    };
    let params = &sig[p_open + 1..p_close];
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut ranges = Vec::new();
    for (i, t) in params.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct(',') && depth == 0 {
            ranges.push(&params[start..i]);
            start = i + 1;
        }
    }
    ranges.push(&params[start..]);
    for param in ranges {
        let Some(colon) = param.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        let ty = &param[colon + 1..];
        let is_callback = ty
            .iter()
            .any(|t| t.is_ident("Fn") || t.is_ident("FnMut") || t.is_ident("FnOnce"));
        if !is_callback {
            continue;
        }
        // Name: last ident before the `:` (skips `mut`).
        if let Some(name) = param[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
        {
            out.insert(name.text.clone());
        }
    }
    out
}

// ---- D8: cycles in the per-crate acquisition graph -------------------------

/// Detects cycles in a crate's acquisition graph. Each strongly-connected
/// set of locks (including self-loops) yields one finding, anchored at the
/// lexically-first in-cycle edge site.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<StructFinding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
        nodes.insert(&e.held);
        nodes.insert(&e.acquired);
    }
    // Reachability closure (graphs here are tiny).
    let reach = |from: &str| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut frontier = vec![from];
        while let Some(n) = frontier.pop() {
            if let Some(next) = adj.get(n) {
                for &m in next {
                    if seen.insert(m) {
                        frontier.push(m);
                    }
                }
            }
        }
        seen
    };
    let reachable: BTreeMap<&str, BTreeSet<&str>> = nodes.iter().map(|&n| (n, reach(n))).collect();

    let mut findings = Vec::new();
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if assigned.contains(n) {
            continue;
        }
        let scc: Vec<&str> = nodes
            .iter()
            .filter(|&&m| m == n || (reachable[n].contains(m) && reachable[m].contains(n)))
            .copied()
            .collect();
        for &m in &scc {
            assigned.insert(m);
        }
        let cyclic = scc.len() >= 2 || reachable[n].contains(n);
        if !cyclic {
            continue;
        }
        let mut in_cycle: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| scc.contains(&e.held.as_str()) && scc.contains(&e.acquired.as_str()))
            .collect();
        in_cycle.sort();
        let Some(site) = in_cycle.first() else {
            continue;
        };
        let mut cycle = scc.join(" -> ");
        cycle.push_str(" -> ");
        cycle.push_str(scc[0]);
        findings.push(StructFinding {
            file: site.file.clone(),
            line: site.line,
            col: site.col,
            rule: "D8",
            name: "lock-order",
            snippet: format!("lock cycle: {cycle}"),
            message: D8_MESSAGE,
        });
    }
    findings
}

// ---- D12: cross-artifact metrics audit --------------------------------------

/// Parses the metrics inventory table out of DESIGN.md: rows of the form
/// ``| `keebo.some.metric` | counter | ... |``.
pub fn parse_design_inventory(path: &str, text: &str) -> Vec<InventoryRow> {
    let mut rows = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let name_cell = cells[0];
        if !(name_cell.len() > 2 && name_cell.starts_with('`') && name_cell.ends_with('`')) {
            continue;
        }
        let name = &name_cell[1..name_cell.len() - 1];
        if !name.starts_with("keebo.") {
            continue;
        }
        rows.push(InventoryRow {
            name: name.to_string(),
            kind: cells[1].to_lowercase(),
            file: path.to_string(),
            line: (idx + 1) as u32,
        });
    }
    rows
}

/// Cross-checks source metric uses against the inventory. `uses` must be in
/// deterministic (file-sorted) order — findings anchor at first sites.
pub fn check_metrics(uses: &[(String, MetricUse)], rows: &[InventoryRow]) -> Vec<StructFinding> {
    let mut findings = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<&(String, MetricUse)>> = BTreeMap::new();
    for u in uses {
        by_name.entry(&u.1.name).or_default().push(u);
    }
    let row_by_name: BTreeMap<&str, &InventoryRow> =
        rows.iter().map(|r| (r.name.as_str(), r)).collect();

    for (name, sites) in &by_name {
        let first = sites[0];
        let row = row_by_name.get(name);
        if row.is_none() {
            findings.push(StructFinding {
                file: first.0.clone(),
                line: first.1.line,
                col: first.1.col,
                rule: "D12",
                name: "metric-undocumented",
                snippet: (*name).to_string(),
                message: D12_MESSAGE,
            });
        }
        // Every kind claimed for this name — across registration sites and
        // the inventory row — must agree. The expected kind is the
        // inventory's when documented, else the first registration's; the
        // finding anchors at the first dissenting site.
        let row_kind = row
            .map(|r| r.kind.as_str())
            .filter(|k| matches!(*k, "counter" | "gauge" | "histogram"));
        let expected = row_kind.or_else(|| sites.iter().find_map(|s| s.1.kind));
        if let Some(exp) = expected {
            if let Some(site) = sites.iter().find(|s| s.1.kind.is_some_and(|k| k != exp)) {
                let got = site.1.kind.unwrap_or("?");
                findings.push(StructFinding {
                    file: site.0.clone(),
                    line: site.1.line,
                    col: site.1.col,
                    rule: "D12",
                    name: "metric-kind-conflict",
                    snippet: format!("{name}: registered as {got}, expected {exp}"),
                    message: D12_MESSAGE,
                });
            }
        }
    }
    for r in rows {
        if !by_name.contains_key(r.name.as_str()) {
            findings.push(StructFinding {
                file: r.file.clone(),
                line: r.line,
                col: 1,
                rule: "D12",
                name: "metric-stale-row",
                snippet: r.name.clone(),
                message: D12_MESSAGE,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::build_structure;
    use crate::scope::annotate_test_scope;

    fn facts(src: &str) -> FileFacts {
        let mut lexed = lex(src);
        annotate_test_scope(&mut lexed.tokens);
        let st = build_structure(&lexed.tokens);
        FileFacts::collect(
            "crates/x/src/lib.rs",
            FileInfo::classify("crates/x/src/lib.rs"),
            lexed.tokens,
            st,
        )
    }

    use crate::rules::FileInfo;

    fn scan(src: &str) -> ConcurrencyReport {
        let f = facts(src);
        scan_concurrency(&f, &f.lock_wrappers)
    }

    const WRAPPER: &str =
        "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap_or_else(p) }\n";

    #[test]
    fn wrapper_fns_are_indexed() {
        let f = facts(WRAPPER);
        assert!(f.lock_wrappers.contains("lock"));
        // A fn *taking* a guard is not a wrapper.
        let f = facts("fn takes(g: MutexGuard<'_, u32>) -> u32 { *g }");
        assert!(f.lock_wrappers.is_empty());
    }

    #[test]
    fn metric_literals_are_indexed_with_kind() {
        let f = facts(
            "fn f(reg: &R) {\n\
               reg.counter(\"keebo.a.total\").inc();\n\
               let name = \"keebo.b.depth\";\n\
               reg.gauge(name).set(1.0);\n\
             }",
        );
        assert_eq!(f.metrics.len(), 2);
        assert_eq!(f.metrics[0].kind, Some("counter"));
        assert_eq!(f.metrics[1].kind, None);
        assert_eq!(f.metrics[1].name, "keebo.b.depth");
    }

    #[test]
    fn both_orders_make_a_cycle() {
        let src = format!(
            "{WRAPPER}\
             fn a(s: &S) {{ let g = lock(&s.m1); lock(&s.m2).touch(); }}\n\
             fn b(s: &S) {{ let g = lock(&s.m2); lock(&s.m1).touch(); }}\n"
        );
        let rep = scan(&src);
        let cycles = lock_cycles(&rep.edges);
        assert_eq!(cycles.len(), 1, "{:?}", rep.edges);
        assert!(cycles[0].snippet.contains("m1"));
        assert!(cycles[0].snippet.contains("m2"));
    }

    #[test]
    fn one_global_order_is_clean() {
        let src = format!(
            "{WRAPPER}\
             fn a(s: &S) {{ let g = lock(&s.m1); lock(&s.m2).touch(); }}\n\
             fn b(s: &S) {{ let g = lock(&s.m1); lock(&s.m2).touch(); }}\n"
        );
        let rep = scan(&src);
        assert!(lock_cycles(&rep.edges).is_empty());
    }

    #[test]
    fn dropped_guard_breaks_the_edge() {
        let src = format!(
            "{WRAPPER}\
             fn a(s: &S) {{ let g = lock(&s.m1); drop(g); lock(&s.m2).touch(); }}\n\
             fn b(s: &S) {{ let g = lock(&s.m2); lock(&s.m1).touch(); }}\n"
        );
        let rep = scan(&src);
        assert!(lock_cycles(&rep.edges).is_empty(), "{:?}", rep.edges);
    }

    #[test]
    fn block_scope_ends_a_named_guard() {
        let src = format!(
            "{WRAPPER}\
             fn a(s: &S) {{ let x = {{ let g = lock(&s.m1); g.take() }}; lock(&s.m2).touch(); }}\n\
             fn b(s: &S) {{ let g = lock(&s.m2); lock(&s.m1).touch(); }}\n"
        );
        let rep = scan(&src);
        assert!(lock_cycles(&rep.edges).is_empty(), "{:?}", rep.edges);
    }

    #[test]
    fn deref_assign_place_holds_nothing() {
        // `*lock(&s.m1) = f(...)` — the RHS runs before the place locks.
        let src = format!(
            "{WRAPPER}\
             fn a(s: &S) {{ *lock(&s.m1) = lock(&s.m2).read(); }}\n\
             fn b(s: &S) {{ let g = lock(&s.m2); lock(&s.m1).touch(); }}\n"
        );
        let rep = scan(&src);
        // b records m2 -> m1; a records NO m1 -> m2 edge (place expr).
        assert!(!rep.edges.iter().any(|e| e.held == "m1"), "{:?}", rep.edges);
    }

    #[test]
    fn self_reacquisition_is_a_cycle() {
        let src = format!(
            "{WRAPPER}\
             fn a(s: &S) {{ let g = lock(&s.m1); lock(&s.m1).touch(); }}\n"
        );
        let rep = scan(&src);
        let cycles = lock_cycles(&rep.edges);
        assert_eq!(cycles.len(), 1);
        assert!(
            cycles[0].snippet.contains("s.m1 -> s.m1"),
            "{}",
            cycles[0].snippet
        );
    }

    #[test]
    fn guard_across_catch_unwind_flags() {
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap_or_else(p); \
                   catch_unwind(job); }";
        let rep = scan(src);
        let d10: Vec<_> = rep.findings.iter().filter(|f| f.rule == "D10").collect();
        assert_eq!(d10.len(), 1, "{:?}", rep.findings);
        assert!(d10[0].snippet.contains("catch_unwind"));
    }

    #[test]
    fn guard_scoped_before_catch_unwind_is_clean() {
        let src = "fn f(m: &Mutex<u32>) { let j = { let g = m.lock().unwrap_or_else(p); \
                   g.job() }; catch_unwind(j); }";
        let rep = scan(src);
        assert!(rep.findings.iter().all(|f| f.rule != "D10"));
    }

    #[test]
    fn guard_across_callback_and_send_flags() {
        let src = "fn f(m: &Mutex<u32>, hook: impl Fn(u32)) { \
                   let g = m.lock().unwrap_or_else(p); hook(*g); tx.send(*g); }";
        let rep = scan(src);
        let d10: Vec<_> = rep.findings.iter().filter(|f| f.rule == "D10").collect();
        assert_eq!(d10.len(), 2, "{:?}", rep.findings);
    }

    #[test]
    fn closures_are_fresh_contexts() {
        // The guard lives in the outer fn; the closure body starts clean,
        // and the catch_unwind inside it sees no guard.
        let src = "fn f(m: &Mutex<u32>) { let g = m.lock().unwrap_or_else(p); \
                   run(move || { catch_unwind(job); }); }";
        let rep = scan(src);
        assert!(
            rep.findings.iter().all(|f| f.rule != "D10"),
            "{:?}",
            rep.findings
        );
    }

    #[test]
    fn wait_reassignment_keeps_guard_alive() {
        let src = "struct S { cv: Condvar }\n\
                   fn f(s: &S, m: &Mutex<u32>) { let mut g = m.lock().unwrap_or_else(p); \
                   while pred() { g = s.cv.wait(g).unwrap_or_else(p); } catch_unwind(j); }";
        let rep = scan(src);
        // The guard is still live at catch_unwind.
        assert!(rep.findings.iter().any(|f| f.rule == "D10"));
    }

    #[test]
    fn design_inventory_rows_parse() {
        let md = "# Doc\n\
                  | metric | kind | meaning |\n\
                  |---|---|---|\n\
                  | `keebo.a.total` | counter | things |\n\
                  | `keebo.b.depth` | gauge | depth |\n\
                  | not_a_metric | counter | skipped |\n";
        let rows = parse_design_inventory("DESIGN.md", md);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "keebo.a.total");
        assert_eq!(rows[0].kind, "counter");
        assert_eq!(rows[1].line, 5);
    }

    #[test]
    fn metrics_audit_catches_drift() {
        let rows = parse_design_inventory(
            "DESIGN.md",
            "| `keebo.a.total` | counter | x |\n| `keebo.gone` | gauge | y |\n",
        );
        let uses = vec![
            (
                "a.rs".to_string(),
                MetricUse {
                    name: "keebo.a.total".into(),
                    kind: Some("counter"),
                    line: 3,
                    col: 5,
                },
            ),
            (
                "a.rs".to_string(),
                MetricUse {
                    name: "keebo.new".into(),
                    kind: Some("gauge"),
                    line: 9,
                    col: 5,
                },
            ),
            (
                "b.rs".to_string(),
                MetricUse {
                    name: "keebo.a.total".into(),
                    kind: Some("gauge"),
                    line: 2,
                    col: 1,
                },
            ),
        ];
        let findings = check_metrics(&uses, &rows);
        let names: Vec<&str> = findings.iter().map(|f| f.name).collect();
        assert!(names.contains(&"metric-undocumented"), "{findings:?}");
        assert!(names.contains(&"metric-kind-conflict"), "{findings:?}");
        assert!(names.contains(&"metric-stale-row"), "{findings:?}");
        let stale = findings
            .iter()
            .find(|f| f.name == "metric-stale-row")
            .unwrap();
        assert_eq!(stale.file, "DESIGN.md");
        assert_eq!(stale.line, 2);
    }

    #[test]
    fn consistent_metrics_are_clean() {
        let rows = parse_design_inventory("DESIGN.md", "| `keebo.a.total` | counter | x |\n");
        let uses = vec![(
            "a.rs".to_string(),
            MetricUse {
                name: "keebo.a.total".into(),
                kind: Some("counter"),
                line: 3,
                col: 5,
            },
        )];
        assert!(check_metrics(&uses, &rows).is_empty());
    }
}
