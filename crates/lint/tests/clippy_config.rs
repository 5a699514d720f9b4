//! The levels of the rules that moved to clippy. An `#[expect]` switches
//! its own lint on, so the clippy canary (`src/canary.rs`) cannot see a
//! level dropped from the workspace lints table (D5, D7) or from one of
//! D6's files; these tests pin those lines.

fn has_line(rel: &str, line: &str) -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(path).is_ok_and(|text| text.lines().any(|l| l.trim() == line))
}

#[test]
fn workspace_lints_table_warns_on_panic_paths() {
    for line in [
        "unwrap_used = \"warn\"",
        "expect_used = \"warn\"",
        "panic = \"warn\"",
    ] {
        assert!(has_line("Cargo.toml", line), "Cargo.toml lost `{line}`");
    }
}

#[test]
fn billing_files_warn_on_every_cast() {
    for file in [
        "crates/cdw-sim/src/billing.rs",
        "crates/cdw-sim/src/time.rs",
        "crates/core/src/pricing.rs",
        "crates/costmodel/src/lib.rs",
    ] {
        let line = "#![warn(clippy::as_conversions)]";
        assert!(has_line(file, line), "{file} lost `{line}`");
    }
}
