//! # kwo-lint — repo-local determinism & numeric-safety lints
//!
//! The KWO control loop is trusted because its decisions replay bit-for-bit
//! and its billing arithmetic is exact. The dynamic suite (fleet-digest
//! identity, the billing oracle, the fuzzer) *detects* violations of those
//! invariants; static rules *prevent* them from entering the tree. Rules a
//! type checker states exactly are clippy's, set in the root `clippy.toml`
//! and `[workspace.lints.clippy]`; this crate keeps D4, D11 and D12, as a
//! self-contained pass with no syn/rustc dependency:
//!
//! | rule | enforced by | config line | invariant protected |
//! |------|-------------|-------------|---------------------|
//! | D1 no-wall-clock | clippy | `disallowed-methods`: `Instant::now`, `SystemTime::now` | replayable decisions |
//! | D2 no-ambient-rng | clippy | `disallowed-methods`: `thread_rng`, `random`, `from_entropy` | name-keyed seed streams |
//! | D3 ordered-iteration | clippy | `disallowed-types`: `HashMap`, `HashSet` | bit-identical digests |
//! | D4 no-float-eq | kwo-lint | `rules.rs` | exact credit arithmetic |
//! | D5 no-panic-paths | clippy | `unwrap_used`, `expect_used`, `panic` | runs never abort mid-flight |
//! | D6 checked-casts | clippy | `#![warn(clippy::as_conversions)]` in the billing files | billing precision |
//! | D7 durable-io | clippy + rustc | D5's lints, `unused_must_use` | io handled, not unwrapped |
//! | D11 atomics-ordering | kwo-lint | `rules.rs` | Relaxed only on obs counters |
//! | D12 metrics-inventory | kwo-lint | `index.rs` | keebo.* names match DESIGN.md |
//!
//! D4 and D11 are per-file token rules (`rules.rs`); D12 audits the whole
//! workspace against DESIGN.md (`index.rs`). D8–D10 are retired. Findings
//! are suppressed per site with `// lint: allow(Dn) — reason` (the
//! justification is mandatory); any other diagnostic fails the gate. See
//! the `kwo-lint` binary for the CLI, and `canary.rs` for the clippy rules.

#[cfg(clippy)]
mod canary;
pub mod diag;
pub mod engine;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use diag::{to_json, Diagnostic};
pub use engine::{
    lint_source, lint_sources, lint_workspace, run_fixtures, workspace_files, FixtureReport,
};
pub use index::{InventoryRow, MetricUse};
pub use rules::{all_rules, FileInfo, FileKind};
