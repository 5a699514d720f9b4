//! The smart models (§6 of the paper).
//!
//! Each warehouse gets its own *smart model*: a deep-Q-network policy over
//! telemetry-derived state features whose actions are the warehouse knobs —
//! resize up/down, widen/narrow the cluster range, lengthen/shorten
//! auto-suspend, suspend outright, or do nothing. The model is "smart"
//! rather than a frozen policy because at decision time it consults (§4.3):
//!
//! * the **cost model** (through the reward it was trained on),
//! * the **customer constraints** ([`constraints`]) — hard rules filtered by
//!   action masking, never soft penalties,
//! * the **slider** ([`slider`]) — the five-position cost/performance
//!   trade-off that maps to the reward's performance-penalty weight and the
//!   back-off sensitivity, and
//! * **real-time feedback** (the monitoring layer in the `keebo` crate can
//!   override the chosen action with a conservative back-off).
//!
//! Training ([`trainer`]) is offline and replay-driven: historical telemetry
//! is reconstructed into a workload, episodes are rolled out on the
//! simulator, and transitions feed a replay ring for Q-learning — matching
//! the paper's observation that access to "large historical telemetry data
//! ... enables [the model] to learn from a diverse range of past experiences
//! without the need for constant updates" (§8).

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod action;
pub mod constraints;
pub mod dqn;
mod replay;
pub mod reward;
pub mod slider;
pub mod state;
pub mod trainer;

pub use action::{AgentAction, AUTO_SUSPEND_LADDER_MS};
pub use constraints::{ConstraintSet, Rule, RuleEffect, TimeWindow};
pub use dqn::{DqnAgent, DqnConfig, Transition};
pub use reward::{action_reward, compute_reward, PerfSignals};
pub use slider::SliderPosition;
pub use state::{AgentState, STATE_DIM};
pub use trainer::{
    baseline_p99, reconstruct_specs, train_on_workload, EpisodeConfig, TrainingStats,
};
