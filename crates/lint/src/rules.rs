//! The per-file token rules D4 and D11.
//!
//! Each rule is a matcher over the lexed token stream of one file plus a
//! scope predicate saying where the rule applies. The rules encode the
//! invariants the dynamic test suite checks after the fact — fleet-digest
//! bit-identity, billing-oracle agreement — as source-level bans, so a
//! regression is rejected at lint time instead of being hunted down from a
//! flaky digest mismatch later. Rules a type checker states better (wall
//! clock, ambient RNG, hash collections, panic paths, casts, io results)
//! are clippy's, configured in `clippy.toml` and the workspace lints
//! table. The cross-artifact audit D12 needs the whole workspace and
//! DESIGN.md, and lives in `index.rs`.

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

static RULES: [Rule; 2] = [
    Rule {
        id: "D4",
        name: "no-float-eq",
        message: "exact float equality on credit/f64 arithmetic: compare with an epsilon helper (allow only for exact sentinel checks)",
        applies: |f| f.kind != FileKind::TestLike,
        scan: scan_float_eq,
    },
    Rule {
        id: "D11",
        name: "atomics-ordering",
        message: "Ordering::Relaxed outside the obs statistics registry: cross-thread flags/cursors need Acquire/Release/SeqCst — or justify the counter with an inline `// lint: allow(D11) — reason`",
        applies: |f| f.kind == FileKind::Lib && f.krate != "obs",
        scan: scan_relaxed_ordering,
    },
];

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
    fn test_scope_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x == 0.5; c.load(Ordering::Relaxed); } }";
        assert!(run(scan_float_eq, src).is_empty());
        assert!(run(scan_relaxed_ordering, src).is_empty());
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
