// lint-fixture: crates/bench/src/bin/driver.rs
//! Rule scoping by file kind: the pretend path is a *binary* driver, where
//! D11 (atomics ordering) is tolerated — a CLI's progress counter may be
//! Relaxed — but D4 (float equality) still applies.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn ok_bin_may_use_relaxed(done: &AtomicU64) -> u64 {
    done.load(Ordering::Relaxed)
}

pub fn bad_bin_float_eq(x: f64) -> bool {
    x == 0.25 //~ D4
}

pub fn bad_bin_float_constant(x: f64) -> bool {
    f64::NAN != x //~ D4
}
