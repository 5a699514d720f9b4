//! Observability layer for the KWO reproduction.
//!
//! The paper's KWO runs as a managed service whose operators live off
//! real-time monitoring and a customer-facing savings dashboard (§6). This
//! crate provides the in-process half of that story:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and fixed-bucket
//!   histograms with lock-free hot paths, safe to update from fleet worker
//!   threads concurrently. A process-global registry ([`global`]) lets deep
//!   call sites (billing, replay, actuation) record without plumbing a
//!   handle through every constructor.
//! - [`DecisionTrace`]: the export schema of an optimizer's per-control-tick
//!   [`DecisionEvent`]s — observed state features, the full action mask with
//!   per-action masking reasons, the chosen action, and the reward — enough
//!   to answer "why did WH_A downsize at hour 412?". The optimizer keeps the
//!   bounded ring itself, as plain data, and renders one of these on read.
//! - Exporters: [`prometheus_text`] renders a registry snapshot in the
//!   Prometheus text exposition format; [`DecisionTrace::to_jsonl`] emits
//!   one JSON object per event.
//!
//! # Zero perturbation
//!
//! Nothing in this crate consumes randomness or feeds back into simulation
//! or control-plane state: metric updates are fire-and-forget atomics and
//! trace recording only copies values out. Disabling collection via
//! [`set_enabled`]`(false)` therefore yields bit-identical simulation
//! results (pinned by `keebo::fleet` digest tests).

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

mod export;
mod registry;
mod trace;

pub use export::prometheus_text;
pub use registry::{
    Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{DecisionEvent, DecisionTrace, MaskEntry, TraceFeatures};

use std::sync::OnceLock;

/// Returns whether collection on the [`global`] registry is enabled.
pub fn enabled() -> bool {
    global().enabled()
}

/// Enables or disables collection on the [`global`] registry. Every handle
/// it has handed out (or will hand out) becomes a no-op while disabled;
/// registration and snapshots are unaffected. Registries created with
/// [`MetricsRegistry::new`] carry their own independent switch.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// The process-global registry. Instrumented crates register their metrics
/// here; exporters snapshot it.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs.test.shared");
        let before = c.get();
        global().counter("obs.test.shared").inc();
        assert_eq!(c.get(), before + 1);
    }
}
