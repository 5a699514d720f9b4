//! A discrete-event simulator for a Snowflake-style cloud data warehouse.
//!
//! Keebo's Warehouse Optimization (KWO) never looks inside the warehouse: it
//! observes *telemetry metadata* (query history and billing history) and acts
//! through *`ALTER WAREHOUSE`-style commands*. This crate reproduces exactly
//! that externally observable contract so the rest of the workspace — the
//! warehouse cost model, the smart models, the orchestration loop — can be
//! built and evaluated without access to a production CDW:
//!
//! * **T-shirt sizing** ([`WarehouseSize`]): X-Small through 6X-Large, hourly
//!   credit rate and compute capacity both doubling with each step (§3 of the
//!   paper).
//! * **Multi-cluster warehouses** with Standard / Economy / Maximized
//!   scale-out policies ([`ScalingPolicy`]), query slots per cluster, and FIFO
//!   queuing when no slots are free.
//! * **Auto-suspend / auto-resume**: an idle warehouse suspends after its
//!   auto-suspend interval, *dropping its local cache*; the next query resumes
//!   it and pays cold-read penalties ([`CacheState`]).
//! * **Per-second billing with a 60-second minimum** per cluster start,
//!   rolled up hourly ([`billing`]).
//! * **Telemetry emission**: completed queries produce [`QueryRecord`]s and
//!   warehouse lifecycle changes produce [`WarehouseEventRecord`]s — the same
//!   metadata schema the paper trains on (§6.1), with hashed query text only.
//!
//! The simulation is deterministic: all randomness comes from caller-seeded
//! RNGs in the workload layer; the engine itself is purely event-driven with
//! stable tie-breaking.
//!
//! # Example
//!
//! ```
//! use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, QuerySpec};
//!
//! let mut account = Account::new();
//! account.create_warehouse(
//!     "ETL_WH",
//!     WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(300),
//! );
//! let mut sim = Simulator::new(account);
//! let wh = sim.account().warehouse_id("ETL_WH").unwrap();
//! sim.submit_query(wh, QuerySpec::builder(1).work_ms_xs(8_000.0).arrival_ms(1_000).build());
//! sim.run_until(3_600_000);
//! let credits = sim.account().ledger().total_credits();
//! assert!(credits > 0.0);
//! ```

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod account;
pub mod api;
pub mod billing;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod exec;
pub mod faults;
pub mod mix;
pub mod policy;
pub mod query;
pub mod records;
pub mod sim;
pub mod size;
pub mod time;
pub mod warehouse;

pub use account::{Account, WarehouseId};
pub use api::{AlterError, WarehouseCommand};
pub use billing::{BillingLedger, HourlyCredits, SessionRecord, MIN_BILL_SECONDS};
pub use cache::CacheState;
pub use cluster::{Cluster, ClusterState};
pub use config::WarehouseConfig;
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultStats, FaultWindow, TelemetryFault};
pub use policy::ScalingPolicy;
pub use query::{QuerySpec, QuerySpecBuilder};
pub use records::{
    ActionSource, QueryRecord, WarehouseEventKind, WarehouseEventRecord, WarehouseName,
};
pub use sim::{PostEventHook, Simulator};
pub use size::WarehouseSize;
pub use time::{SimTime, DAY_MS, HOUR_MS, MINUTE_MS, SECOND_MS};
pub use warehouse::{Warehouse, WarehouseState};
