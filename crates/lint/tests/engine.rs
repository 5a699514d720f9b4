//! Integration tests for the kwo-lint engine: the fixture corpus must agree
//! with its `//~ Dn` expectation markers, cover every rule, and the JSON
//! report must match the checked-in snapshot byte for byte.

use lint::{run_fixtures, to_json};
use std::path::Path;

fn fixtures_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

#[test]
fn fixture_corpus_agrees_with_markers() {
    let report = run_fixtures(fixtures_dir()).expect("fixture corpus readable");
    assert!(
        report.passed(),
        "missed: {:#?}\nunexpected: {:#?}",
        report.missed,
        report.unexpected
    );
    assert!(
        !report.diags.is_empty(),
        "corpus must contain true positives"
    );
}

#[test]
fn fixture_corpus_covers_every_rule() {
    let report = run_fixtures(fixtures_dir()).expect("fixture corpus readable");
    for rule in ["D4", "D11", "D12"] {
        assert!(
            report.diags.iter().any(|d| d.rule == rule),
            "no fixture exercises {rule}"
        );
    }
}

#[test]
fn fixture_corpus_has_false_positive_traps() {
    // The trap files exist to prove the lexer/scope layers: they mention
    // every banned pattern in non-code positions and must stay diagnostic
    // free. Guard that they are still part of the corpus.
    for trap in ["fp_traps.rs", "scope_kinds.rs", "not_test_scope.rs"] {
        assert!(
            fixtures_dir().join(trap).is_file(),
            "trap fixture {trap} missing"
        );
    }
    let report = run_fixtures(fixtures_dir()).expect("fixture corpus readable");
    assert!(
        !report.diags.iter().any(|d| d.file == "fp_traps.rs"),
        "fp_traps.rs must produce zero diagnostics: {:#?}",
        report
            .diags
            .iter()
            .filter(|d| d.file == "fp_traps.rs")
            .collect::<Vec<_>>()
    );
}

#[test]
fn json_report_matches_snapshot() {
    let report = run_fixtures(fixtures_dir()).expect("fixture corpus readable");
    let got = to_json(&report.diags);
    let snap_path = fixtures_dir()
        .parent()
        .expect("tests dir")
        .join("snapshots/fixtures.json");
    let want = std::fs::read_to_string(&snap_path).expect("snapshot file readable");
    assert_eq!(
        got,
        want,
        "JSON report drifted from snapshot; regenerate with\n\
         `cargo run -p lint --bin kwo-lint -- --smoke --json {}`",
        snap_path.display()
    );
}

#[test]
fn json_report_is_wellformed() {
    // Cheap structural checks that hold for any corpus state, so snapshot
    // regeneration cannot silently break the consumer contract.
    let report = run_fixtures(fixtures_dir()).expect("fixture corpus readable");
    let json = to_json(&report.diags);
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains(&format!("\"total\": {}", report.diags.len())));
    // One rendered entry per diagnostic.
    assert_eq!(json.matches("{\"rule\":").count(), report.diags.len());
}
