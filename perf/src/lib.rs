//! The KWO performance ledger.
//!
//! `BENCHMARK.json` at the repository root names four workloads, the
//! end-to-end metrics a user of the system sees (with the bound by which
//! each may worsen), and the per-layer metrics a traced run attributes
//! them to. The `perf` binary next to this library measures them, driving
//! the system only through its public APIs and timing every layer from
//! outside; see `README.md` for what each workload and metric is for.
//!
//! This library is the clock-free half: the catalogue, the statistics, the
//! span arithmetic, the two instruments that sit between the driver and the
//! system ([`instruments::ShardDriver`], [`instruments::TimedStore`]),
//! the result-file model and `perf compare`. Everything here is
//! deterministic given its inputs — the tracer takes its clock as a
//! function — so the tests can pin it exactly. Host time is read only in
//! the binary.

pub mod catalog;
pub mod compare;
pub mod instruments;
pub mod result;
pub mod stats;
pub mod trace;
