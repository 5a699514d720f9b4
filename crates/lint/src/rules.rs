//! The per-file token rules D1–D7 and D11.
//!
//! Each rule is a matcher over the lexed token stream of one file plus a
//! scope predicate saying where the rule applies. The rules encode the
//! invariants the dynamic test suite checks after the fact — fleet-digest
//! bit-identity, billing-oracle agreement — as source-level bans, so a
//! regression is rejected at lint time instead of being hunted down from a
//! flaky digest mismatch later. The cross-artifact audit D12 needs the
//! whole workspace and DESIGN.md, and lives in `index.rs`.

use crate::lexer::{Tok, TokKind};

/// Where a file sits in the workspace, as far as rule scoping cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under some crate's `src/` (not `src/bin/`).
    Lib,
    /// Binary / driver code (`src/bin/`).
    Bin,
    /// Integration tests, examples, fixtures: exempt from every rule.
    TestLike,
}

/// Classification of one source file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// Crate directory name under `crates/` ("cdw-sim", "core", ...).
    pub krate: String,
    pub kind: FileKind,
}

impl FileInfo {
    /// Classifies a repo-relative path. `\` separators are normalized to
    /// `/`, and the test-like / bin checks look only at *directory*
    /// segments below the crate root — so a crate literally named
    /// `fixtures` or `tests` (`crates/fixtures/src/lib.rs`) is still Lib,
    /// and a file named `tests.rs` never trips the directory check.
    pub fn classify(path: &str) -> FileInfo {
        let normalized = path.replace('\\', "/");
        let segments: Vec<&str> = normalized.split('/').collect();
        // Directory segments only: everything but the file name.
        let dirs = &segments[..segments.len().saturating_sub(1)];

        let (krate, crate_dirs) = if dirs.first() == Some(&"crates") && dirs.len() >= 2 {
            (dirs[1].to_string(), &dirs[2..])
        } else {
            (String::new(), dirs)
        };

        let kind = if crate_dirs
            .iter()
            .any(|d| matches!(*d, "tests" | "examples" | "fixtures"))
        {
            FileKind::TestLike
        } else if crate_dirs.first() == Some(&"src") && crate_dirs.get(1) == Some(&"bin") {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        FileInfo {
            path: normalized,
            krate,
            kind,
        }
    }
}

/// A raw match before allow filtering.
#[derive(Debug, Clone)]
pub struct RuleMatch {
    pub line: u32,
    pub col: u32,
    pub snippet: String,
}

/// Static description of one rule.
pub struct Rule {
    pub id: &'static str,
    pub name: &'static str,
    /// One-line message attached to each diagnostic.
    pub message: &'static str,
    /// Does the rule apply to this file at all?
    pub applies: fn(&FileInfo) -> bool,
    /// Token matcher.
    pub scan: fn(&[Tok]) -> Vec<RuleMatch>,
}

/// The rule registry, in id order.
pub fn all_rules() -> &'static [Rule] {
    &RULES
}

static RULES: [Rule; 8] = [
    Rule {
        id: "D1",
        name: "no-wall-clock",
        message: "wall-clock read in deterministic code: derive time from SimTime or take it as a parameter (allow only for never-read-back observability)",
        applies: |f| f.kind == FileKind::Lib && f.krate != "bench" && f.krate != "lint",
        scan: scan_wall_clock,
    },
    Rule {
        id: "D2",
        name: "no-ambient-rng",
        message: "ambient RNG seeding: every stream must derive from derive_stream_seed or an explicit seed parameter",
        applies: |f| f.kind != FileKind::TestLike,
        scan: scan_ambient_rng,
    },
    Rule {
        id: "D3",
        name: "ordered-iteration",
        message: "HashMap/HashSet iteration order is nondeterministic and can leak into digests/reports: use BTreeMap/BTreeSet or sort at emit",
        applies: |f| f.kind != FileKind::TestLike,
        scan: scan_unordered_collections,
    },
    Rule {
        id: "D4",
        name: "no-float-eq",
        message: "exact float equality on credit/f64 arithmetic: compare with an epsilon helper (allow only for exact sentinel checks)",
        applies: |f| f.kind != FileKind::TestLike,
        scan: scan_float_eq,
    },
    Rule {
        id: "D5",
        name: "no-panic-paths",
        message: "panic path in library code: handle the case, or justify with an adjacent `// lint: allow(D5) — reason`",
        applies: |f| f.kind == FileKind::Lib,
        scan: scan_panic_paths,
    },
    Rule {
        id: "D6",
        name: "checked-casts",
        message: "bare numeric cast on a billing/costmodel path: use the checked helpers in cdw_sim::billing (exact_f64, credits_from_secs, ms_fraction)",
        applies: |f| {
            f.kind == FileKind::Lib
                && (f.path == "crates/cdw-sim/src/billing.rs"
                    || f.path == "crates/cdw-sim/src/time.rs"
                    || f.path == "crates/core/src/pricing.rs"
                    || f.path.starts_with("crates/costmodel/src/"))
        },
        scan: scan_bare_casts,
    },
    Rule {
        id: "D7",
        name: "durable-io",
        message: "io unwrap/expect or unchecked file write outside the durable store: handle the io::Result (the control plane persists fail-open) or route output through the StateStore / bench::report helpers",
        applies: |f| {
            f.kind != FileKind::TestLike
                && !f.path.starts_with("crates/core/src/store")
                && f.path != "crates/bench/src/report.rs"
        },
        scan: scan_durable_io,
    },
    Rule {
        id: "D11",
        name: "atomics-ordering",
        message: "Ordering::Relaxed outside the obs statistics registry: cross-thread flags/cursors need Acquire/Release/SeqCst — or justify the counter with an inline `// lint: allow(D11) — reason`",
        applies: |f| f.kind == FileKind::Lib && f.krate != "obs",
        scan: scan_relaxed_ordering,
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

// ---- matchers -------------------------------------------------------------

/// Iterator over indices of non-test tokens.
fn live(toks: &[Tok]) -> impl Iterator<Item = (usize, &Tok)> {
    toks.iter().enumerate().filter(|(_, t)| !t.in_test)
}

/// Is `toks[i..]` the sequence `:: <ident>`?
fn path_seg(toks: &[Tok], i: usize, ident: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_ident(ident))
}

fn m(t: &Tok, snippet: impl Into<String>) -> RuleMatch {
    RuleMatch {
        line: t.line,
        col: t.col,
        snippet: snippet.into(),
    }
}

/// D1: `Instant::now`, `SystemTime::now` (any path prefix).
fn scan_wall_clock(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        if (t.is_ident("Instant") || t.is_ident("SystemTime")) && path_seg(toks, i + 1, "now") {
            out.push(m(t, format!("{}::now", t.text)));
        }
    }
    out
}

/// D2: `thread_rng`, `from_entropy`, `rand::random`.
fn scan_ambient_rng(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            out.push(m(t, t.text.clone()));
        } else if t.is_ident("rand") && path_seg(toks, i + 1, "random") {
            out.push(m(t, "rand::random"));
        }
    }
    out
}

/// D3: any mention of `HashMap`/`HashSet` (type, constructor, or import).
/// Mentions are flagged rather than iterations: iteration sites are what
/// corrupt digests, but the only reliable way to keep them out with a token
/// matcher is to keep the types out entirely (keyed lookup maps belong in
/// `BTreeMap` too — same API, no order trap when someone later iterates).
fn scan_unordered_collections(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (_, t) in live(toks) {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(m(t, t.text.clone()));
        }
    }
    out
}

/// D4: `==` / `!=` with a float literal (or float constant like `f64::NAN`)
/// on either side.
fn scan_float_eq(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        let snippet_op = if t.is_punct('=') && toks.get(i + 1).is_some_and(|n| n.is_punct('=')) {
            // Exclude `==` that is really the tail of `<=`, `>=`, `!=`.
            if i > 0
                && (toks[i - 1].is_punct('<')
                    || toks[i - 1].is_punct('>')
                    || toks[i - 1].is_punct('!')
                    || toks[i - 1].is_punct('='))
            {
                continue;
            }
            "=="
        } else if t.is_punct('!') && toks.get(i + 1).is_some_and(|n| n.is_punct('=')) {
            "!="
        } else {
            continue;
        };
        // Left operand: previous token.
        let left_float = i > 0 && operand_is_float(toks, i - 1, Direction::Left);
        // Right operand: skip the second op char, then an optional sign.
        let mut r = i + 2;
        if toks.get(r).is_some_and(|n| n.is_punct('-')) {
            r += 1;
        }
        let right_float = operand_is_float(toks, r, Direction::Right);
        if left_float || right_float {
            out.push(m(t, snippet_op));
        }
    }
    out
}

enum Direction {
    Left,
    Right,
}

/// Is the operand token at `i` float-flavored? Float literal, or a path to
/// a known f64 constant (`f64::NAN`, `f64::INFINITY`, ...).
fn operand_is_float(toks: &[Tok], i: usize, dir: Direction) -> bool {
    let Some(t) = toks.get(i) else {
        return false;
    };
    if t.kind == TokKind::Num && t.is_float_literal() {
        return true;
    }
    match dir {
        Direction::Right => {
            (t.is_ident("f64") || t.is_ident("f32"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
        }
        Direction::Left => {
            // `f64::NAN == x`: the token left of `==` is the constant name
            // preceded by `f64::`.
            t.kind == TokKind::Ident
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && (toks[i - 3].is_ident("f64") || toks[i - 3].is_ident("f32"))
        }
    }
}

/// D5: `.unwrap(`, `.expect(`, `panic!(` in library code.
fn scan_panic_paths(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(m(t, format!(".{}()", t.text)));
        } else if t.is_ident("panic")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_none_or(|p| !p.is_punct('.') && !p.is_ident("core") && !p.is_ident("std"))
        {
            // `.panic` never occurs; the look-behind only drops
            // `std::panic!`-style fully qualified forms from double counting
            // (the bare `panic` ident is still the match point).
            out.push(m(t, "panic!"));
        }
    }
    out
}

/// Io-returning callees whose `Result` must not be unwrapped outside the
/// durable store. `read`/`write` are NOT here: they are too common as
/// ordinary method names (`RwLock::read`/`write` legitimately unwrap their
/// poison Result) and match only in `fs::`-qualified form.
const IO_FNS: [&str; 19] = [
    "copy",
    "create",
    "create_dir",
    "create_dir_all",
    "create_new",
    "flush",
    "metadata",
    "open",
    "read_to_end",
    "read_to_string",
    "remove_dir",
    "remove_dir_all",
    "remove_file",
    "rename",
    "seek",
    "set_len",
    "sync_all",
    "sync_data",
    "write_all",
];

/// Walks back from a `)` at `close` to its matching `(`; returns the index
/// of the callee identifier immediately before it, if any.
fn callee_of_close_paren(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 1usize;
    let mut j = close;
    while depth > 0 {
        j = j.checked_sub(1)?;
        if toks[j].is_punct(')') {
            depth += 1;
        } else if toks[j].is_punct('(') {
            depth -= 1;
        }
    }
    j.checked_sub(1).filter(|&k| toks[k].kind == TokKind::Ident)
}

/// Walks forward from a `(` at `open` to its matching `)`.
pub(crate) fn matching_close_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Is the callee identifier at `k` an io-flavored call?
fn is_io_callee(toks: &[Tok], k: usize) -> bool {
    let qualified_fs = k >= 3
        && toks[k - 1].is_punct(':')
        && toks[k - 2].is_punct(':')
        && toks[k - 3].is_ident("fs");
    match toks[k].text.as_str() {
        "read" | "write" => qualified_fs,
        name => IO_FNS.contains(&name),
    }
}

/// Does the statement containing the token at `i` bind or forward its
/// value? Scans back to the previous statement boundary looking for `=`
/// (let bindings, assignments, `=>` arms) or `return`.
fn stmt_binds_value(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_punct('=') || t.is_ident("return") {
            return true;
        }
    }
    false
}

/// D7: io calls with the `Result` unwrapped (`fs::write(..).expect(..)`,
/// `File::open(p).unwrap()`) and file writes whose `Result` is silently
/// dropped (`f.write_all(b);`). The durable store and the bench report
/// helper are the sanctioned homes for this io; everywhere else the
/// fallibility must be surfaced.
fn scan_durable_io(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        // io_call(..).unwrap() / io_call(..).expect(..)
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks[i - 2].is_punct(')')
        {
            if let Some(callee) = callee_of_close_paren(toks, i - 2) {
                if is_io_callee(toks, callee) {
                    out.push(m(t, format!("{}(..).{}()", toks[callee].text, t.text)));
                }
            }
        }
        // Unchecked write: statement-level `.write_all(..);`,
        // `File::create(..);`, or `fs::write(..);` with the Result dropped.
        let write_target = (t.is_ident("write_all") && i > 0 && toks[i - 1].is_punct('.'))
            || (t.is_ident("create")
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("File"))
            || (t.is_ident("write")
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("fs"));
        if write_target && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(close) = matching_close_paren(toks, i + 1) {
                if toks.get(close + 1).is_some_and(|n| n.is_punct(';'))
                    && !stmt_binds_value(toks, i)
                {
                    out.push(m(t, format!("unchecked {}(..)", t.text)));
                }
            }
        }
    }
    out
}

/// D11: the exact token path `Ordering::Relaxed`. The full-path check means
/// `std::cmp::Ordering::Equal` and other `Ordering` enums never match —
/// only the atomics variant spells `Relaxed`.
fn scan_relaxed_ordering(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        if t.is_ident("Ordering") && path_seg(toks, i + 1, "Relaxed") {
            out.push(m(toks.get(i + 3).unwrap_or(t), "Ordering::Relaxed"));
        }
    }
    out
}

/// D6: `as u64` / `as f64`.
fn scan_bare_casts(toks: &[Tok]) -> Vec<RuleMatch> {
    let mut out = Vec::new();
    for (i, t) in live(toks) {
        if t.is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_ident("u64") || n.is_ident("f64"))
        {
            out.push(m(t, format!("as {}", toks[i + 1].text)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::annotate_test_scope;

    fn run(scan: fn(&[Tok]) -> Vec<RuleMatch>, src: &str) -> Vec<RuleMatch> {
        let mut lexed = lex(src);
        annotate_test_scope(&mut lexed.tokens);
        scan(&lexed.tokens)
    }

    #[test]
    fn wall_clock_matches_qualified_paths() {
        let hits = run(scan_wall_clock, "let t = std::time::Instant::now();");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].snippet, "Instant::now");
        assert!(run(scan_wall_clock, "let i: Instant = other(); i.elapsed();").is_empty());
    }

    #[test]
    fn ambient_rng_matches_all_forms() {
        assert_eq!(run(scan_ambient_rng, "let mut r = thread_rng();").len(), 1);
        assert_eq!(run(scan_ambient_rng, "StdRng::from_entropy()").len(), 1);
        assert_eq!(
            run(scan_ambient_rng, "let x: f64 = rand::random();").len(),
            1
        );
        assert!(run(scan_ambient_rng, "let random = 3; rando::random();").is_empty());
    }

    #[test]
    fn float_eq_flags_literals_not_ints() {
        assert_eq!(run(scan_float_eq, "if credits == 0.0 {}").len(), 1);
        assert_eq!(run(scan_float_eq, "if x != 1e-9 {}").len(), 1);
        assert_eq!(run(scan_float_eq, "if 0.5 == y {}").len(), 1);
        assert_eq!(run(scan_float_eq, "if x == -1.0 {}").len(), 1);
        assert!(run(scan_float_eq, "if n == 0 {}").is_empty());
        assert!(run(scan_float_eq, "if n <= 0.5 {}").is_empty());
        assert!(run(scan_float_eq, "if a.to_bits() == b.to_bits() {}").is_empty());
    }

    #[test]
    fn float_eq_flags_f64_constants() {
        assert_eq!(run(scan_float_eq, "if x == f64::INFINITY {}").len(), 1);
        assert_eq!(run(scan_float_eq, "if f64::NAN == x {}").len(), 1);
    }

    #[test]
    fn panic_paths_match_unwrap_expect_panic() {
        assert_eq!(run(scan_panic_paths, "x.unwrap();").len(), 1);
        assert_eq!(run(scan_panic_paths, "x.expect(\"m\");").len(), 1);
        assert_eq!(run(scan_panic_paths, "panic!(\"boom\");").len(), 1);
        assert!(run(scan_panic_paths, "x.unwrap_or(0);").is_empty());
        assert!(run(scan_panic_paths, "x.unwrap_or_else(f);").is_empty());
        assert!(run(scan_panic_paths, "debug_assert!(x);").is_empty());
    }

    #[test]
    fn casts_match_only_u64_f64() {
        assert_eq!(run(scan_bare_casts, "let x = secs as f64;").len(), 1);
        assert_eq!(run(scan_bare_casts, "let x = n as u64;").len(), 1);
        assert!(run(scan_bare_casts, "let x = n as usize;").is_empty());
        assert!(run(scan_bare_casts, "let x = n as u8;").is_empty());
    }

    #[test]
    fn durable_io_flags_unwrapped_io_calls() {
        assert_eq!(
            run(scan_durable_io, "let f = File::open(p).unwrap();").len(),
            1
        );
        assert_eq!(
            run(scan_durable_io, "std::fs::write(p, d).expect(\"w\");").len(),
            1
        );
        assert_eq!(run(scan_durable_io, "f.write_all(&buf).unwrap();").len(), 1);
        assert_eq!(
            run(scan_durable_io, "fs::create_dir_all(dir).unwrap();").len(),
            1
        );
        // Nested parens in the arguments are matched through.
        assert_eq!(
            run(scan_durable_io, "fs::write(p, render(a, b)).unwrap();").len(),
            1
        );
    }

    #[test]
    fn durable_io_flags_dropped_write_results() {
        assert_eq!(run(scan_durable_io, "f.write_all(&buf);").len(), 1);
        assert_eq!(run(scan_durable_io, "File::create(path);").len(), 1);
        assert_eq!(run(scan_durable_io, "std::fs::write(p, d);").len(), 1);
    }

    #[test]
    fn durable_io_leaves_handled_io_alone() {
        assert!(run(scan_durable_io, "f.write_all(&buf)?;").is_empty());
        assert!(run(scan_durable_io, "let r = File::create(path);").is_empty());
        assert!(run(scan_durable_io, "if fs::write(p, d).is_err() { fail(); }").is_empty());
        assert!(run(scan_durable_io, "return file.write_all(b);").is_empty());
        // Mutex/RwLock poison unwraps are not io.
        assert!(run(scan_durable_io, "let g = lock.read().unwrap();").is_empty());
        assert!(run(scan_durable_io, "let g = lock.write().unwrap();").is_empty());
        // Non-io unwraps belong to D5, not D7.
        assert!(run(scan_durable_io, "let v = map.get(k).unwrap();").is_empty());
    }

    #[test]
    fn test_scope_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); thread_rng(); } }";
        assert!(run(scan_panic_paths, src).is_empty());
        assert!(run(scan_ambient_rng, src).is_empty());
    }

    #[test]
    fn relaxed_ordering_matches_only_atomics() {
        assert_eq!(
            run(scan_relaxed_ordering, "x.fetch_add(1, Ordering::Relaxed);").len(),
            1
        );
        assert_eq!(
            run(
                scan_relaxed_ordering,
                "y.load(std::sync::atomic::Ordering::Relaxed)"
            )
            .len(),
            1
        );
        // The cmp enum never spells `Relaxed`.
        assert!(run(scan_relaxed_ordering, "if ord == Ordering::Equal {}").is_empty());
        assert!(run(scan_relaxed_ordering, "x.load(Ordering::Acquire)").is_empty());
        assert!(run(scan_relaxed_ordering, "let Relaxed = mode;").is_empty());
    }

    #[test]
    fn classify_is_table_driven() {
        // (path, expected kind, expected crate)
        let table: &[(&str, FileKind, &str)] = &[
            // Backslash separators normalize.
            ("crates\\core\\src\\fleet.rs", FileKind::Lib, "core"),
            (
                "crates\\core\\tests\\gateway.rs",
                FileKind::TestLike,
                "core",
            ),
            // A crate literally named `fixtures` or `tests` is still Lib.
            ("crates/fixtures/src/lib.rs", FileKind::Lib, "fixtures"),
            ("crates/tests/src/lib.rs", FileKind::Lib, "tests"),
            // A *file* named tests.rs/fixtures.rs is not a tests directory.
            ("crates/core/src/tests.rs", FileKind::Lib, "core"),
            ("crates/core/src/fixtures.rs", FileKind::Lib, "core"),
            // Directory segments still classify as before.
            (
                "crates/lint/tests/fixtures/d8.rs",
                FileKind::TestLike,
                "lint",
            ),
            ("crates/core/examples/demo.rs", FileKind::TestLike, "core"),
            ("crates/bench/src/bin/fuzz.rs", FileKind::Bin, "bench"),
            // `src/bin` must be those exact segments, in order.
            ("crates/core/src/binary.rs", FileKind::Lib, "core"),
        ];
        for (path, kind, krate) in table {
            let info = FileInfo::classify(path);
            assert_eq!(info.kind, *kind, "kind of {path}");
            assert_eq!(info.krate, *krate, "crate of {path}");
        }
    }

    #[test]
    fn classify_file_kinds() {
        assert_eq!(
            FileInfo::classify("crates/core/src/fleet.rs").kind,
            FileKind::Lib
        );
        assert_eq!(FileInfo::classify("crates/core/src/fleet.rs").krate, "core");
        assert_eq!(
            FileInfo::classify("crates/bench/src/bin/fuzz.rs").kind,
            FileKind::Bin
        );
        assert_eq!(
            FileInfo::classify("tests/chaos.rs").kind,
            FileKind::TestLike
        );
        assert_eq!(
            FileInfo::classify("examples/quickstart.rs").kind,
            FileKind::TestLike
        );
        assert_eq!(
            FileInfo::classify("crates/lint/tests/fixtures/d1.rs").kind,
            FileKind::TestLike
        );
        assert_eq!(
            FileInfo::classify("crates/nn/tests/ols_exact.rs").kind,
            FileKind::TestLike
        );
    }
}
