//! The levels of the rules that moved to clippy. An `#[expect]` switches
//! its own lint on, so the clippy canary (`src/canary.rs`) cannot see a
//! level dropped from the workspace lints table (D5, D7), from one of D6's
//! files or from a crate root (D4); these tests pin those lines.

use std::path::{Path, PathBuf};

fn repo(rel: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

fn has_line(path: &Path, line: &str) -> bool {
    std::fs::read_to_string(path).is_ok_and(|text| text.lines().any(|l| l.trim() == line))
}

#[test]
fn workspace_lints_table_warns_on_panic_paths() {
    for lint in ["unwrap_used", "expect_used", "panic"] {
        let line = format!("{lint} = \"warn\"");
        assert!(has_line(&repo("Cargo.toml"), &line), "lost `{line}`");
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
        assert!(has_line(&repo(file), line), "{file} lost `{line}`");
    }
}

#[test]
fn every_lib_and_bin_root_warns_on_float_equality() {
    let crates = std::fs::read_dir(repo("crates")).unwrap();
    let mut roots = Vec::new();
    for src in crates.map(|k| k.unwrap().path().join("src")) {
        let bins = std::fs::read_dir(src.join("bin")).into_iter().flatten();
        roots.extend(bins.map(|bin| bin.unwrap().path()));
        roots.extend([src.join("lib.rs"), src.join("main.rs")]);
    }
    roots.retain(|path| path.is_file());
    assert!(roots.len() > 10, "{roots:?}");
    let line = "#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]";
    for path in roots {
        assert!(has_line(&path, line), "{path:?} lacks `{line}`");
    }
}
