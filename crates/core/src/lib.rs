//! # Keebo Warehouse Optimization (KWO) — reproduction
//!
//! This crate assembles the full optimization life-cycle the paper describes
//! (§4): *"from observing the workload, learning smart models, applying
//! optimization decisions, monitoring the performance impact of those
//! decisions, adjusting or reverting the optimizations in case of an adverse
//! impact, and reporting the overall benefits to users."*
//!
//! The pieces:
//!
//! * [`orchestrator`] — the data-learning loop of Algorithm 1. Each
//!   warehouse's control tick is one fixed pipeline of stages (sense →
//!   assess → retrain → gate → decide → reward → act → journal) gated by a
//!   single per-tick decision of what may run; admin events and WAL replay
//!   share one apply path, and persistence sits behind one journal value;
//! * [`monitoring`] — real-time state, load-spike detection, and
//!   external-change detection (§4.4);
//! * [`actuator`] — translates agent actions into `ALTER WAREHOUSE`
//!   commands, keeps the action log, retries transient control-plane
//!   errors, and reports errors (§4.5);
//! * [`reconciler`] — records the intended configuration and re-drives any
//!   drift (failed, dropped, or delayed ALTERs) under capped exponential
//!   backoff with deterministic jitter;
//! * [`health`] — the `Healthy → Degraded → Frozen` state machine that
//!   gates training and optimization on telemetry staleness and actuation
//!   failures, with automatic recovery;
//! * [`dashboard`] — the KPI aggregates behind the web portal's charts
//!   (§4.1): spend, savings, latency percentiles, queue times, cost per
//!   query;
//! * [`pricing`] — value-based pricing: the customer pays a percentage of
//!   realized savings (§4.7);
//! * [`store`] / [`persist`] / [`drill`] — the durable control plane: the
//!   WAL + snapshot store family, the record and snapshot codecs, and the
//!   crash-drill harness `tests/recovery.rs` and `tests/store_matrix.rs`
//!   share;
//! * [`fleet`] / [`pool`] / [`gateway`] — tenants sharded over
//!   width-capped scoped worker jobs, fronted by the admission gateway.
//!
//! ## Quickstart
//!
//! ```no_run
//! use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS};
//! use keebo::{KwoSetup, Orchestrator};
//! use workload::{generate_trace, BiWorkload};
//!
//! // A customer account with one oversized BI warehouse.
//! let mut account = Account::new();
//! let wh = account.create_warehouse(
//!     "BI_WH",
//!     WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
//! );
//! let mut sim = Simulator::new(account);
//! for q in generate_trace(&BiWorkload::default(), 0, 14 * DAY_MS, 42) {
//!     sim.submit_query(wh, q);
//! }
//!
//! // Attach KWO: observe for 7 days, then optimize for 7 more.
//! let mut kwo = Orchestrator::new(42);
//! kwo.manage(&sim, "BI_WH", KwoSetup::default());
//! kwo.observe_until(&mut sim, 7 * DAY_MS);
//! kwo.onboard(&mut sim);
//! kwo.run_until(&mut sim, 14 * DAY_MS);
//!
//! let report = kwo.savings_report(&sim, "BI_WH", 7 * DAY_MS, 14 * DAY_MS);
//! println!("estimated savings: {:.1} credits", report.estimated_savings);
//! ```

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod actuator;
pub mod consolidation;
pub mod dashboard;
pub mod drill;
pub mod drng;
pub mod fleet;
pub mod gateway;
pub mod health;
pub mod monitoring;
pub mod orchestrator;
pub mod persist;
pub mod pool;
pub mod pricing;
pub mod reconciler;
pub mod store;

pub use actuator::{
    ActionLogEntry, ActionOutcome, Actuator, CommandOutcome, CommandStatus, LogEntryKind, Reason,
};
pub use consolidation::{evaluate_consolidation, ConsolidationInput, ConsolidationReport};
pub use dashboard::{DailyKpis, Dashboard, OpsKpis};
pub use drill::{DrillBackend, DrillCell, DrillOutcome, Fingerprint};
pub use drng::DetRng;
pub use fleet::{
    FleetController, FleetReport, FleetRunStats, TenantReport, TenantSpec, WarehouseSpec,
};
pub use gateway::{
    Admission, Gateway, GatewayConfig, GatewayStats, Priority, Request, RequestKind, ShedCounts,
    ShedReason, TokenBucket,
};
pub use health::{DegradeReason, HealthMonitor, HealthSignals, HealthState};
pub use monitoring::{is_external_config_change, Monitor, RealTimeState};
pub use orchestrator::{
    derive_stream_seed, KwoSetup, ManageError, Orchestrator, WarehouseOptimizer,
    DEFAULT_SNAPSHOT_INTERVAL_TICKS,
};
pub use persist::{
    CtlState, OptimizerSnapshot, PersistError, PersistRecord, RecoveryStats, RetrainRecord,
    SnapshotState, TickEffects, FORMAT_VERSION,
};
pub use pool::WorkerPool;
pub use pricing::{Invoice, ValueBasedPricing};
pub use reconciler::{ReconcileOutcome, Reconciler};
pub use store::{
    scan_frames, CrashPlan, FaultyStore, FileStore, FrameScan, MemStore, StateStore, StoreContents,
    StoreFaultPlan,
};

// Re-export the user-facing configuration surface so downstream users need
// only this crate for common setups.
pub use agent::{ConstraintSet, Rule, RuleEffect, SliderPosition, TimeWindow};
pub use costmodel::SavingsReport;

// The observability layer: metrics registry, decision trace, exporters.
// `keebo::obs::global()` is the process-wide registry every crate in the
// decision path records into; `WarehouseOptimizer::trace()` renders the
// per-tick decision log.
pub use keebo_obs as obs;
pub use keebo_obs::{DecisionEvent, DecisionTrace, MaskEntry, MetricsSnapshot, TraceFeatures};

// Used by the doc example above.
pub use workload::generate_trace;
