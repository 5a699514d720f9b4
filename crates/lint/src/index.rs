//! The cross-artifact metrics audit (D12).
//!
//! Every `keebo.*` metric-name string in source must be registered with one
//! consistent kind and documented in DESIGN.md's metrics inventory table;
//! stale inventory rows are flagged. The per-file token rules in `rules.rs`
//! cannot see this: it needs every file of the workspace plus the document,
//! so the engine collects each file's metric literals and audits them once.

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use std::collections::BTreeMap;

const D12_MESSAGE: &str = "metric drifted from DESIGN.md's `keebo.*` inventory — registration names, kinds, and inventory rows must agree";

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

/// `keebo.*` string literals, with the registration kind when the literal
/// sits directly inside `counter(..)` / `gauge(..)` / `histogram(..)`.
pub fn find_metric_uses(tokens: &[Tok]) -> Vec<MetricUse> {
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

fn finding(file: &str, line: u32, col: u32, name: &str, snippet: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        col,
        rule: "D12".to_string(),
        name: name.to_string(),
        snippet,
        message: D12_MESSAGE.to_string(),
    }
}

/// Cross-checks source metric uses against the inventory. `uses` must be in
/// deterministic (file-sorted) order — findings anchor at first sites.
pub fn check_metrics(uses: &[(String, MetricUse)], rows: &[InventoryRow]) -> Vec<Diagnostic> {
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
            findings.push(finding(
                &first.0,
                first.1.line,
                first.1.col,
                "metric-undocumented",
                (*name).to_string(),
            ));
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
                findings.push(finding(
                    &site.0,
                    site.1.line,
                    site.1.col,
                    "metric-kind-conflict",
                    format!("{name}: registered as {got}, expected {exp}"),
                ));
            }
        }
    }
    for r in rows {
        if !by_name.contains_key(r.name.as_str()) {
            findings.push(finding(
                &r.file,
                r.line,
                1,
                "metric-stale-row",
                r.name.clone(),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn metric_literals_are_indexed_with_kind() {
        let metrics = find_metric_uses(
            &lex("fn f(reg: &R) {\n\
                   reg.counter(\"keebo.a.total\").inc();\n\
                   let name = \"keebo.b.depth\";\n\
                   reg.gauge(name).set(1.0);\n\
                 }")
            .tokens,
        );
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].kind, Some("counter"));
        assert_eq!(metrics[1].kind, None);
        assert_eq!(metrics[1].name, "keebo.b.depth");
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
        let names: Vec<&str> = findings.iter().map(|f| f.name.as_str()).collect();
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
