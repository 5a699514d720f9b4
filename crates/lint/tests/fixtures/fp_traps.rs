// lint-fixture: crates/core/src/fixture_fp.rs
//! Pure false-positive traps: every banned pattern appears below only in a
//! lexical position where it is NOT code (strings, comments, doc comments)
//! or in test-only scope. This file must produce ZERO diagnostics — any
//! diagnostic here is reported by `--smoke` as unexpected.

// Trap: line comment — credits == 0.0, x != 1e-9, n.load(Ordering::Relaxed).

/* Trap: block comment — 0.5 == y, x == f64::INFINITY,
   /* nested: hits.fetch_add(1, Ordering::Relaxed) */ still inside. */

/// Trap: doc comment — `credits == 0.0`, `x.store(1, Ordering::Relaxed)`.
pub fn traps_in_docs() {}

pub fn traps_in_strings() -> String {
    let a = "credits == 0.0 || x != 1e-9";
    let b = r#"say "x == -1.0" then next.fetch_add(1, Ordering::Relaxed)"#;
    let c = "Ordering::Relaxed";
    format!("{a}{b}{c}")
}

pub fn traps_in_char_literals() -> [char; 2] {
    // `'a'` must lex as a char literal, not start a lifetime that swallows
    // the rest of the line.
    ['a', '=']
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn traps_in_test_mod() {
        let n = AtomicU64::new(1);
        assert!(n.load(Ordering::Relaxed) == 1);
        let x = 0.5f64;
        assert!(x == 0.5);
    }
}

#[cfg(test)]
fn trap_cfg_test_fn(x: f64) -> bool {
    x == 0.0
}

#[cfg(all(test, feature = "slow-tests"))]
fn trap_cfg_all_test(n: &std::sync::atomic::AtomicU64) -> u64 {
    n.load(std::sync::atomic::Ordering::Relaxed)
}
