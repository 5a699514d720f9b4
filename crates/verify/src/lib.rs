//! Simulator verification subsystem.
//!
//! Every number the workspace reports — replay-based cost estimates, RL
//! rewards, savings invoices — rests on `cdw-sim`'s Snowflake semantics.
//! This crate checks those semantics from the outside, three ways:
//!
//! 1. **Differential billing oracle** ([`oracle`]): an independent
//!    reference implementation of per-second/60 s-minimum/hourly-bucketed
//!    billing replayed over the exact session log a simulation produced,
//!    required to agree with the ledger to 1e-9.
//! 2. **Invariant checker** ([`invariants`]): structural invariants
//!    evaluated after every simulator event via the post-event hook, plus
//!    metamorphic scenario helpers ([`metamorphic`]) for relations like
//!    time-translation invariance.
//! 3. **Structured fuzzer** ([`fuzz`]): a no-dependency, seed-driven
//!    generator of interleaved ALTER/query/advance sequences driven through
//!    the public API, checked against the validator and the oracle, with
//!    byte-level shrinking on failure. The bench crate exposes it as the
//!    `fuzz` bin (`--smoke` in CI).

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod fuzz;
pub mod invariants;
pub mod metamorphic;
pub mod oracle;
pub mod rng;

pub use fuzz::{
    decode, fuzz_one, generate_bytes, run_campaign, run_case, run_case_catching, shrink_bytes,
    shrink_with, CampaignReport, CaseFailure, CaseStats, FailureKind, FailureReport, FuzzCase,
    FuzzConfig, FuzzOp,
};
pub use invariants::{InvariantKind, Validator, Violation};
pub use metamorphic::{run_scenario, shift_queries, ScenarioResult};
pub use oracle::{
    check_account, check_ledger, diff_warehouse, reference_hours, OracleDivergence, OracleReport,
    ORACLE_TOLERANCE,
};
pub use rng::{from_hex, to_hex, SplitMix64};
