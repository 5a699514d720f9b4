//! Keebo's warehouse cost model (§5 of the paper).
//!
//! The cost model answers the *what-if* question: **what would this
//! warehouse have cost without Keebo's optimizations?** Unlike a traditional
//! query-optimizer cost model it emits absolute, billable units (credits)
//! for the *whole warehouse*, not an abstract per-plan score. Its two halves
//! mirror the paper:
//!
//! * **Analytical query replay** ([`replay`]) — iterate over the observed
//!   queries, reconstruct when the warehouse would have been active under
//!   the customer's *original* configuration (size, auto-suspend, cluster
//!   range, scaling policy), and price those active seconds with the exact
//!   billing arithmetic of the CDW (per-second, 60 s minimum per cluster
//!   session).
//! * **Learned parameter estimation** ([`latency`], [`gaps`], [`clusters`])
//!   — regression models calibrated on the warehouse's own history supply
//!   the quantities the replay needs but cannot observe: how query latency
//!   scales across sizes, how arrival gaps shift when dependent queries
//!   move, and how many clusters the original scale-out policy would have
//!   run.
//!
//! The difference between the estimated without-Keebo cost and the actual
//! billed with-Keebo cost is the saving reported to the customer — the basis
//! of value-based pricing (§4.7) and of the reward signal for the smart
//! models (§6).

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]
#![warn(clippy::as_conversions)]

pub mod auto_suspend;
pub mod clusters;
pub mod gaps;
pub mod latency;
pub mod replay;
pub mod savings;

pub use auto_suspend::AutoSuspendOptimizer;
pub use clusters::ClusterPredictor;
pub use gaps::GapModel;
pub use latency::LatencyScaler;
pub use replay::{ReplayConfig, ReplayOutcome, WarehouseCostModel};
pub use savings::{estimate_savings, SavingsReport};
