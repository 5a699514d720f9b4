//! The lint driver: workspace walk, rule application (per-file token rules,
//! then the workspace metrics audit), allow-directive filtering, and the
//! fixture self-check.

use crate::diag::Diagnostic;
use crate::index::{
    check_metrics, find_metric_uses, parse_design_inventory, InventoryRow, MetricUse,
};
use crate::lexer::{lex, AllowDirective, Marker};
use crate::rules::{all_rules, FileInfo, FileKind};
use crate::scope::annotate_test_scope;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The document whose metrics inventory table D12 audits against.
pub const DESIGN_DOC: &str = "DESIGN.md";

/// Directories never linted.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Collects every workspace `.rs` file under `root`, repo-relative and
/// sorted (deterministic diagnostic order). The fixture corpus is excluded:
/// it exists to *contain* violations.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileResult {
    pub diags: Vec<Diagnostic>,
    /// Markers found (fixture mode only cares).
    pub markers: Vec<Marker>,
}

/// Lints one file's source as a single-file workspace: the per-file token
/// rules plus the metrics audit, with `// lint-inventory:` directives
/// standing in for DESIGN.md. `rel_path` is the repo-relative path used
/// both for diagnostics and rule scoping; fixture files override the latter
/// via a `// lint-fixture: <pretend-path>` header (the diagnostics still
/// carry the real path).
pub fn lint_source(rel_path: &str, src: &str) -> FileResult {
    lint_sources(&[(rel_path.to_string(), src.to_string())], None)
}

/// One analyzed (non-test-like) file, mid-pipeline.
struct Analyzed {
    /// Real repo-relative path (diagnostics anchor).
    path: String,
    allows: Vec<AllowDirective>,
    diags: Vec<Diagnostic>,
}

/// Lints a set of sources as one workspace: per-file token rules first,
/// then the workspace metrics audit (D12) against `design` (path + content
/// of DESIGN.md) or, when absent, against any `// lint-inventory:`
/// directives in the sources. Allow directives are applied last so they
/// suppress workspace findings too. `files` must be in deterministic
/// (path-sorted) order.
pub fn lint_sources(files: &[(String, String)], design: Option<(&str, &str)>) -> FileResult {
    let mut result = FileResult::default();
    let mut analyzed: Vec<Analyzed> = Vec::new();
    let mut directive_rows: Vec<InventoryRow> = Vec::new();
    let mut uses: Vec<(String, MetricUse)> = Vec::new();

    for (rel_path, src) in files {
        let pretend = src.lines().next().and_then(|l| {
            l.trim()
                .strip_prefix("// lint-fixture:")
                .map(|p| p.trim().to_string())
        });
        let info = FileInfo::classify(pretend.as_deref().unwrap_or(rel_path));
        let mut lexed = lex(src);
        result.markers.append(&mut lexed.markers);
        if info.kind == FileKind::TestLike {
            continue;
        }
        annotate_test_scope(&mut lexed.tokens);
        let mut diags = Vec::new();
        for rule in all_rules() {
            if !(rule.applies)(&info) {
                continue;
            }
            for hit in (rule.scan)(&lexed.tokens) {
                diags.push(Diagnostic {
                    file: rel_path.clone(),
                    line: hit.line,
                    col: hit.col,
                    rule: rule.id.to_string(),
                    name: rule.name.to_string(),
                    snippet: hit.snippet,
                    message: rule.message.to_string(),
                });
            }
        }
        for m in find_metric_uses(&lexed.tokens) {
            uses.push((rel_path.clone(), m));
        }
        for d in lexed.inventory {
            directive_rows.push(InventoryRow {
                name: d.name,
                kind: d.kind,
                file: rel_path.clone(),
                line: d.line,
            });
        }
        analyzed.push(Analyzed {
            path: rel_path.clone(),
            allows: lexed.allows,
            diags,
        });
    }

    // The cross-artifact metrics audit (D12). The inventory comes from
    // DESIGN.md in workspace mode, from directives in fixture mode; with
    // neither present the rule stays silent.
    let rows = match design {
        Some((path, text)) => parse_design_inventory(path, text),
        None => directive_rows,
    };
    // Allow directives apply to audit findings too; findings anchored
    // outside the analyzed sources (DESIGN.md stale rows) pass through.
    let mut pass_through: Vec<Diagnostic> = Vec::new();
    if design.is_some() || !rows.is_empty() {
        for d in check_metrics(&uses, &rows) {
            match analyzed.iter_mut().find(|a| a.path == d.file) {
                Some(a) => a.diags.push(d),
                None => pass_through.push(d),
            }
        }
    }
    for a in analyzed {
        result
            .diags
            .extend(apply_allows(a.diags, &a.allows, &a.path));
    }
    result.diags.extend(pass_through);
    result.diags.sort();
    result
}

/// Applies allow directives: `// lint: allow(Dn) — reason` suppresses rule
/// `Dn` on its own line and the next line. Directives with no justification
/// do not suppress and are themselves diagnostics; directives that suppress
/// nothing are diagnostics too (stale allows must not accumulate).
fn apply_allows(
    raw: Vec<Diagnostic>,
    allows: &[AllowDirective],
    rel_path: &str,
) -> Vec<Diagnostic> {
    let mut used = vec![false; allows.len()];
    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (ai, a) in allows.iter().enumerate() {
            if a.rule == d.rule
                && !a.reason.is_empty()
                && (d.line == a.line || d.line == a.line + 1)
            {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (ai, a) in allows.iter().enumerate() {
        if a.reason.is_empty() {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: a.line,
                col: 1,
                rule: a.rule.clone(),
                name: "allow-without-reason".to_string(),
                snippet: format!("lint: allow({})", a.rule),
                message:
                    "allow directive has no justification — write `// lint: allow(Dn) — <reason>`"
                        .to_string(),
            });
        } else if !used[ai] {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: a.line,
                col: 1,
                rule: a.rule.clone(),
                name: "stale-allow".to_string(),
                snippet: format!("lint: allow({})", a.rule),
                message: "allow directive suppresses nothing — remove it".to_string(),
            });
        }
    }
    out
}

/// Lints the whole workspace rooted at `root`, including the D12 audit
/// against `DESIGN.md`'s metrics inventory (skipped if the document is
/// missing). Diagnostics are sorted by (file, line, col, rule).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for path in workspace_files(root)? {
        let rel = rel_path(root, &path);
        let src = fs::read_to_string(&path)?;
        files.push((rel, src));
    }
    let design_text = fs::read_to_string(root.join(DESIGN_DOC)).ok();
    let design = design_text.as_deref().map(|t| (DESIGN_DOC, t));
    Ok(lint_sources(&files, design).diags)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Fixture self-check outcome.
#[derive(Debug, Default)]
pub struct FixtureReport {
    /// Diagnostics produced over the corpus (sorted).
    pub diags: Vec<Diagnostic>,
    /// `//~ Dn` markers with no matching diagnostic: the rule missed a
    /// true positive.
    pub missed: Vec<String>,
    /// Diagnostics on lines with no marker: a false positive trap fired.
    pub unexpected: Vec<String>,
}

impl FixtureReport {
    pub fn passed(&self) -> bool {
        self.missed.is_empty() && self.unexpected.is_empty()
    }
}

/// Runs the engine over the fixture corpus at `dir` and cross-checks the
/// diagnostics against the `//~ Dn` expectation markers, line by line.
pub fn run_fixtures(dir: &Path) -> io::Result<FixtureReport> {
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    files.sort();
    let mut report = FixtureReport::default();
    for path in &files {
        let rel = rel_path(dir, path);
        let src = fs::read_to_string(path)?;
        let result = lint_source(&rel, &src);
        let mut expected: BTreeMap<(String, u32), usize> = BTreeMap::new();
        for mk in &result.markers {
            *expected.entry((mk.rule.clone(), mk.line)).or_insert(0) += 1;
        }
        let mut got: BTreeMap<(String, u32), usize> = BTreeMap::new();
        for d in &result.diags {
            *got.entry((d.rule.clone(), d.line)).or_insert(0) += 1;
        }
        for ((rule, line), n) in &expected {
            let g = got.get(&(rule.clone(), *line)).copied().unwrap_or(0);
            if g < *n {
                report
                    .missed
                    .push(format!("{rel}:{line}: expected {rule} ({n}x), got {g}"));
            }
        }
        for ((rule, line), n) in &got {
            let e = expected.get(&(rule.clone(), *line)).copied().unwrap_or(0);
            if *n > e {
                report.unexpected.push(format!(
                    "{rel}:{line}: unexpected {rule} ({n}x, {e} marked)"
                ));
            }
        }
        report.diags.extend(result.diags);
    }
    report.diags.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_applies_rules_by_pretend_path() {
        // Same source, different pretend locations: D11 fires outside the
        // obs registry only.
        let src = "// lint-fixture: crates/core/src/pool.rs\n\
                   fn f(n: &AtomicU64) -> u64 { n.load(Ordering::Relaxed) }\n";
        let r = lint_source("fix.rs", src);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].rule, "D11");
        assert_eq!(
            r.diags[0].file, "fix.rs",
            "diagnostic carries the real path"
        );

        let src2 = "// lint-fixture: crates/obs/src/registry.rs\n\
                    fn f(n: &AtomicU64) -> u64 { n.load(Ordering::Relaxed) }\n";
        assert!(lint_source("fix.rs", src2).diags.is_empty());
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let src = "// lint-fixture: crates/core/src/x.rs\n\
                   // lint: allow(D4) — exact-zero sentinel\n\
                   fn f(x: f64) -> bool { x == 0.0 }\n\
                   fn g(x: f64) -> bool { x == 0.0 }\n";
        let r = lint_source("x.rs", src);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].line, 4, "only the un-annotated one remains");
    }

    #[test]
    fn reasonless_allow_is_a_diagnostic_and_does_not_suppress() {
        let src = "// lint-fixture: crates/core/src/x.rs\n\
                   fn f(x: f64) -> bool { x == 0.0 } // lint: allow(D4)\n";
        let r = lint_source("x.rs", src);
        assert_eq!(r.diags.len(), 2, "{:?}", r.diags);
        assert!(r.diags.iter().any(|d| d.name == "allow-without-reason"));
        assert!(r.diags.iter().any(|d| d.name == "no-float-eq"));
    }

    #[test]
    fn stale_allow_is_a_diagnostic() {
        // Ids of rules that moved to clippy (D5) or retired (D10) suppress
        // nothing, so a leftover directive is reported, not ignored.
        let src = "// lint-fixture: crates/core/src/x.rs\n\
                   // lint: allow(D11) — nothing here uses atomics anymore\n\
                   fn f() {}\n\
                   // lint: allow(D5) — moved to clippy::unwrap_used\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   // lint: allow(D10) — retired rule ids are reported too\n\
                   fn h() {}\n";
        let r = lint_source("x.rs", src);
        assert_eq!(r.diags.len(), 3, "{:?}", r.diags);
        assert!(r.diags.iter().all(|d| d.name == "stale-allow"));
        assert_eq!(r.diags[1].rule, "D5");
        assert_eq!(r.diags[2].rule, "D10");
    }

    #[test]
    fn structural_rules_run_through_lint_source() {
        // D12 via a single-file workspace: the directive stands in for
        // DESIGN.md, so the audit runs over this one source.
        let src = "// lint-fixture: crates/core/src/m.rs\n\
                   // lint-inventory: keebo.a.total:counter\n\
                   fn f(r: &R) { r.gauge(\"keebo.a.total\").set(1.0); }\n";
        let r = lint_source("x.rs", src);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "D12");
        assert_eq!(r.diags[0].name, "metric-kind-conflict");
        assert_eq!(r.diags[0].file, "x.rs");
    }

    #[test]
    fn allow_directive_suppresses_structural_findings() {
        let src = "// lint-fixture: crates/core/src/m.rs\n\
                   // lint-inventory: keebo.a.total:counter\n\
                   // lint: allow(D12) — a gauge view of the same total\n\
                   fn f(r: &R) { r.gauge(\"keebo.a.total\").set(1.0); }\n";
        let r = lint_source("x.rs", src);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn d12_audits_across_files_against_the_design_doc() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                "fn f(r: &R) { r.counter(\"keebo.a.total\").inc(); }".to_string(),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                "fn g(r: &R) { r.gauge(\"keebo.b.depth\").set(1.0); }".to_string(),
            ),
        ];
        let design = "| `keebo.a.total` | counter | things |\n\
                      | `keebo.gone` | gauge | removed |\n";
        let r = lint_sources(&files, Some(("DESIGN.md", design)));
        let d12: Vec<_> = r.diags.iter().filter(|d| d.rule == "D12").collect();
        assert_eq!(d12.len(), 2, "{:?}", d12);
        // keebo.b.depth is undocumented; keebo.gone is a stale row.
        assert!(d12
            .iter()
            .any(|d| d.name == "metric-undocumented" && d.file == "crates/b/src/lib.rs"));
        assert!(d12
            .iter()
            .any(|d| d.name == "metric-stale-row" && d.file == "DESIGN.md" && d.line == 2));
    }
}
