//! # Source rules: replayable decisions and exact billing, kept at the source
//!
//! | rule | enforced by | invariant protected |
//! |------|-------------|---------------------|
//! | D1 no-wall-clock | clippy `disallowed-methods`: `Instant::now`, `SystemTime::now` | replayable decisions |
//! | D2 no-ambient-rng | clippy `disallowed-methods`: `thread_rng`, `random`, `from_entropy` | name-keyed seed streams |
//! | D3 ordered-iteration | clippy `disallowed-types`: `HashMap`, `HashSet` | bit-identical digests |
//! | D4 no-float-eq | clippy `float_cmp`, `float_cmp_const` at every lib and bin root, outside `cfg(test)` | exact credit arithmetic |
//! | D5 no-panic-paths | clippy `unwrap_used`, `expect_used`, `panic` | runs never abort mid-flight |
//! | D6 checked-casts | clippy `as_conversions` in the billing files | billing precision |
//! | D7 durable-io | D5's lints and rustc's `unused_must_use` | io handled, not unwrapped |
//! | D11 atomics-ordering | `tests/source_scan.rs`: a reasoned marker over each `Ordering::Relaxed` | Relaxed only where nothing synchronizes |
//! | D12 metrics-inventory | `tests/source_scan.rs`, against DESIGN.md's metrics inventory | `keebo.*` names match DESIGN.md |
//!
//! D8–D10 are retired. `canary.rs` plants one violation per clippy rule.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

#[cfg(clippy)]
mod canary;
