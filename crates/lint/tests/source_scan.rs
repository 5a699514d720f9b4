//! D11 and D12 (see the table in `src/lib.rs`), read from the source as
//! text. Because rustfmt formats it, a line that starts with `//` is a
//! comment and a `#[cfg(test)]` item ends at the `}` or `;` on its
//! attribute's indentation.

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every `.rs` file under `crates/*/src` as (repo-relative path, text).
fn sources() -> std::io::Result<Vec<(String, String)>> {
    let (mut out, mut dirs) = (Vec::new(), vec![format!("{ROOT}/crates").into()]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let rel = path.to_string_lossy()[ROOT.len() + 1..].to_string();
            if path.is_dir() {
                dirs.push(path);
            } else if rel.ends_with(".rs") && rel.split('/').nth(2) == Some("src") {
                out.push((rel, std::fs::read_to_string(path)?));
            }
        }
    }
    Ok(out)
}

/// (number, text before any `//`, text after the first `//`) for each line
/// of `text` outside `#[cfg(test)]` items.
fn lines(text: &str) -> Vec<(usize, &str, Option<&str>)> {
    let (mut out, mut test_item_indent) = (Vec::new(), None);
    for (line, no) in text.lines().zip(1..) {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        if let Some(at) = test_item_indent {
            if indent == at && (body.starts_with('}') || body.ends_with(';')) {
                test_item_indent = None;
            }
        } else if body.starts_with("#[cfg(test)]") {
            test_item_indent = Some(indent);
        } else {
            let code = line.split("//").next().unwrap_or_default();
            out.push((no, code, line.get(code.len() + 2..)));
        }
    }
    out
}

/// D11: library code outside `crates/obs` (the statistics registry) and
/// `src/bin/` writes `Ordering::Relaxed` only under a `// lint: allow(D11) —
/// <reason>` marker on the same line or the line before; no other marker stays.
fn d11(files: &[(String, String)]) -> Vec<(&str, usize, &str)> {
    let mut out = Vec::new();
    for (path, text) in files {
        let checked = !path.starts_with("crates/obs/") && !path.contains("/src/bin/");
        let lines = lines(text);
        let mut relaxed: Vec<usize> = (lines.iter())
            .filter(|l| checked && l.1.contains("Ordering::Relaxed"))
            .map(|l| l.0)
            .collect();
        for &(no, _, comment) in &lines {
            let marker = comment.and_then(|c| c.trim_start().strip_prefix("lint: allow("));
            let Some((rule, reason)) = marker.map(|m| m.split_once(')').unwrap_or((m, ""))) else {
                continue;
            };
            let stale = if rule != "D11" {
                "marker for another rule"
            } else if reason.trim_start_matches([' ', '—', '-']).is_empty() {
                "marker without a reason"
            } else if !relaxed.iter().any(|&n| n == no || n == no + 1) {
                "marker over nothing"
            } else {
                relaxed.retain(|&n| n != no && n != no + 1);
                continue;
            };
            out.push((path.as_str(), no, stale));
        }
        for n in relaxed {
            out.push((path.as_str(), n, "Relaxed, unmarked"));
        }
    }
    out
}

/// (file, line, what is wrong, metric)
type Finding<'a> = (&'a str, usize, &'static str, &'a str);

/// D12: each `"keebo.…"` literal in lib or bin code has a row in DESIGN.md's
/// metrics inventory, of its kind when the literal opens a `.counter(`,
/// `.gauge(` or `.histogram(` call, and each row has a literal.
fn d12<'a>(files: &'a [(String, String)], design: &'a str) -> Vec<Finding<'a>> {
    let rows: Vec<(usize, &str, &str)> = (design.lines().zip(1..))
        .filter_map(|(l, no)| {
            let name = l.strip_prefix("| `")?.split('`').next()?;
            let row = (no, name, l.split('|').nth(2)?.trim());
            name.starts_with("keebo.").then_some(row)
        })
        .collect();
    let (mut out, mut used, mut previous) = (Vec::new(), Vec::new(), "");
    for (path, text) in files {
        for (no, code, _) in lines(text) {
            for (at, _) in code.match_indices("\"keebo.") {
                let name = code[at + 1..].split('"').next().unwrap_or_default();
                used.push(name);
                let Some(&(_, _, kind)) = rows.iter().find(|r| r.1 == name) else {
                    out.push((path.as_str(), no, "undocumented", name));
                    continue;
                };
                // The call the literal opens, on its own line or the one before.
                let call = Some(code[..at].trim_end()).filter(|c| !c.is_empty());
                let call = call.unwrap_or(previous.trim_end());
                let opens = |k: &&str| *k != kind && call.ends_with(&format!(".{k}("));
                if ["counter", "gauge", "histogram"].iter().any(opens) {
                    out.push((path.as_str(), no, "kind differs from its row", name));
                }
            }
            previous = code;
        }
    }
    for &(no, name, _) in rows.iter().filter(|r| !used.contains(&r.1)) {
        out.push(("DESIGN.md", no, "row with no literal", name));
    }
    out
}

#[test]
fn d11_every_relaxed_ordering_carries_a_reasoned_marker() {
    let files = sources().unwrap();
    assert!(d11(&files).is_empty(), "{:#?}", d11(&files));
}

#[test]
fn d12_every_metric_literal_matches_the_design_inventory() {
    let design = std::fs::read_to_string(format!("{ROOT}/DESIGN.md")).unwrap_or_default();
    let files = sources().unwrap();
    let found = d12(&files, &design);
    assert!(found.is_empty(), "D12: {found:#?}");
}

/// Silent: each hit is in a comment, a `#[cfg(test)]` item or under a marker.
const CLEAN: &str = r#"reg.counter("keebo.t.ticks").inc(); // lint: allow(D11) — stats counter
hits.fetch_add(1, Ordering::Relaxed);
reg.histogram(
    "keebo.t.wait_us", hits.load(Ordering::Acquire), std::cmp::Ordering::Equal);
// "keebo.t.new" and Ordering::Relaxed in a comment
/// `"keebo.t.new"` and `Ordering::Relaxed` in a doc comment
f(); // "keebo.t.new" and Ordering::Relaxed after code
#[cfg(test)]
mod tests {
    fn t(r: &R, n: &A) { r.gauge("keebo.t.new").set(n.load(Ordering::Relaxed)); }
}
#[cfg(test)]
use std::sync::atomic::Ordering::Relaxed;
"#;

/// One plant per finding, lines 14 to 19.
const PLANTS: &str = r#"next.fetch_add(1, Ordering::Relaxed);
// lint: allow(D11) — nothing under this one
// lint: allow(D11)
// lint: allow(D4) — a retired rule's marker
reg.my_gauge("keebo.t.new");
reg.gauge("keebo.t.ticks");
"#;

#[test]
fn each_finding_fires_once_and_comments_and_test_items_stay_silent() {
    let design = "| `keebo.t.ticks` | counter |\n| `keebo.t.wait_us` | histogram |\n";
    let lib = |text: String| [("crates/core/src/x.rs".to_string(), text)];
    let (clean, planted) = (lib(CLEAN.into()), lib(format!("{CLEAN}{PLANTS}")));
    assert!(d11(&clean).is_empty() && d12(&clean, design).is_empty());
    let found: Vec<_> = d11(&planted).into_iter().map(|f| (f.1, f.2)).collect();
    let markers = [(15, "marker over nothing"), (16, "marker without a reason")];
    let want = [(17, "marker for another rule"), (14, "Relaxed, unmarked")];
    assert_eq!(found, [markers, want].concat());
    let design = format!("{design}| `keebo.t.retired` | counter |\n");
    let found: Vec<_> = d12(&planted, &design).iter().map(|f| (f.1, f.2)).collect();
    let kind = (19, "kind differs from its row");
    let want = [(18, "undocumented"), kind, (3, "row with no literal")];
    assert_eq!(found, want);
    // The statistics registry and binaries may use Relaxed.
    let exempt = ["crates/obs/src/x.rs", "crates/bench/src/bin/x.rs"];
    let live = "next.fetch_add(1, Ordering::Relaxed);";
    assert!(d11(&exempt.map(|p| (p.into(), live.into()))).is_empty());
}
