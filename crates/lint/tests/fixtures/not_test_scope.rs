// lint-fixture: crates/core/src/fixture_not_test.rs
//! `#[cfg(not(test))]` and `#[cfg_attr(...)]` items are live code: the test
//! exemption must NOT extend to them.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(test))]
pub fn bad_not_test_is_live(credits: f64) -> bool {
    credits == 0.0 //~ D4
}

#[cfg_attr(feature = "strict", deny(warnings))]
pub fn bad_cfg_attr_is_live(ticks: &AtomicU64) -> u64 {
    ticks.load(Ordering::Relaxed) //~ D11
}

// An attribute on a braceless item must not leak test scope onto what
// follows it.
#[cfg(test)]
use std::sync::atomic::AtomicU32 as TestOnlyCounter;

pub fn bad_after_braceless_test_import(ticks: &AtomicU64) {
    ticks.fetch_add(1, Ordering::Relaxed); //~ D11
}
