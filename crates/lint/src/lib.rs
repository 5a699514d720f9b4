//! # kwo-lint — repo-local determinism & numeric-safety lints
//!
//! The KWO control loop is trusted because its decisions replay bit-for-bit
//! and its billing arithmetic is exact. The dynamic suite (fleet-digest
//! identity, the billing oracle, the fuzzer) *detects* violations of those
//! invariants; this crate *prevents* them from entering the tree, as a
//! self-contained static pass with no syn/rustc dependency:
//!
//! | rule | name               | invariant protected                         |
//! |------|--------------------|---------------------------------------------|
//! | D1   | no-wall-clock      | replayable decisions (sim time only)         |
//! | D2   | no-ambient-rng     | name-keyed seed streams                      |
//! | D3   | ordered-iteration  | bit-identical digests/reports                |
//! | D4   | no-float-eq        | exact credit arithmetic                      |
//! | D5   | no-panic-paths     | fleet runs never abort mid-flight            |
//! | D6   | checked-casts      | billing precision (2^53 edge, sign)          |
//! | D7   | durable-io         | fail-open persistence (io handled, not unwrapped) |
//! | D11  | atomics-ordering   | Relaxed only on obs statistics counters      |
//! | D12  | metrics-inventory  | keebo.* names match DESIGN.md's inventory    |
//!
//! D1–D7 and D11 are per-file token rules (`rules.rs`); D12 audits the
//! whole workspace against DESIGN.md (`index.rs`). D8–D10 (lock-order,
//! condvar-wait-loop, guard-across-boundary) are retired — the control
//! plane's few locks are leaves, never nested — and their ids stay unused.
//!
//! Findings are suppressed per site with `// lint: allow(Dn) — reason`
//! (the justification is mandatory); any other diagnostic fails the gate.
//! See the `kwo-lint` binary for the CLI.

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
pub use rules::{all_rules, rule_by_id, FileInfo, FileKind};
