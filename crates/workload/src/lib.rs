//! Synthetic warehouse workloads.
//!
//! The paper evaluates KWO on production customer workloads it cannot share;
//! what it *does* characterize is their statistical shape (§2 C5, §7.1):
//!
//! * **ETL** — highly recurring scheduled jobs with near-constant load
//!   (the "predictable" warehouse of Fig. 4b and the static hourly spend of
//!   Fig. 6);
//! * **BI dashboards** — bursty, cache-sensitive queries concentrated in
//!   business hours;
//! * **ad-hoc analytics** — unpredictable arrivals with heavy-tailed work
//!   and month-end spikes (the "unpredictable" warehouse of Fig. 4a);
//! * **reporting** — periodic batches tolerant of longer latencies.
//!
//! Each generator is parameterized on exactly the axes the paper uses to
//! distinguish warehouses — predictability, cache sensitivity, and load
//! level — and is fully deterministic given a seed.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod arrival;
pub mod fleet;
pub mod generators;
pub mod loadgen;
pub mod mix;
pub mod template;

pub use arrival::{diurnal_rate, poisson_arrivals, scheduled_arrivals};
pub use fleet::{fleet_mix, FleetMember};
pub use generators::{
    generate_trace, AdhocWorkload, BiWorkload, EtlWorkload, ReportingWorkload, WorkloadGenerator,
};
pub use loadgen::{open_loop_plan, ClosedLoopDriver, LoadEvent, LoadOp, LoadPriority};
pub use mix::MixedWorkload;
pub use template::{IdAllocator, QueryTemplate};
