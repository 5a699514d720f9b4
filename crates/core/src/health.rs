//! Control-plane health: graceful degradation instead of flying blind.
//!
//! §4.4's monitoring already handles *workload* anomalies (back-off on
//! latency spikes). This module handles *platform* anomalies — the
//! optimizer's own inputs and outputs failing:
//!
//! * telemetry goes stale (fetch outages) → don't retrain, don't trust
//!   model features computed from old data; fall back to the last-known-good
//!   policy and conservative heuristics;
//! * actuation keeps failing → stop proposing new optimizations entirely
//!   (frozen) and let the reconciler probe until the control plane heals;
//! * recovery is automatic: the state machine is re-evaluated from live
//!   signals every tick, so when the signals clear, optimization resumes.

use cdw_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why the optimizer is degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// Telemetry older than the staleness threshold: model features and
    /// training data can't be trusted.
    StaleTelemetry,
    /// Recent actuation failures below the freeze threshold: act cautiously.
    ActuationFailures,
    /// Observed config differs from intent (reconciler is mid-repair).
    ConfigDrift,
}

/// The optimizer's operating state for one warehouse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Full optimization: train, predict, act.
    #[default]
    Healthy,
    /// Reduced operation; the reason picks what is withheld.
    Degraded(DegradeReason),
    /// Repeated actuation failures: no new optimization actions at all;
    /// only reconcile probes run until the control plane heals.
    Frozen,
}

impl HealthState {
    /// Every state, in digest-code order: a persisted state's tag table.
    pub const ALL: [HealthState; 5] = [
        HealthState::Healthy,
        HealthState::Degraded(DegradeReason::StaleTelemetry),
        HealthState::Degraded(DegradeReason::ActuationFailures),
        HealthState::Degraded(DegradeReason::ConfigDrift),
        HealthState::Frozen,
    ];

    /// Stable small integer identifying this state for digests. Every
    /// variant (including each degrade reason) maps to a distinct code, so
    /// hashing it makes [`crate::fleet::FleetReport::digest`] sensitive to
    /// any health divergence. Codes are part of the digest contract: never
    /// renumber, only append.
    pub fn digest_code(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded(DegradeReason::StaleTelemetry) => 1,
            HealthState::Degraded(DegradeReason::ActuationFailures) => 2,
            HealthState::Degraded(DegradeReason::ConfigDrift) => 3,
            HealthState::Frozen => 4,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded(DegradeReason::StaleTelemetry) => {
                write!(f, "degraded (stale telemetry)")
            }
            HealthState::Degraded(DegradeReason::ActuationFailures) => {
                write!(f, "degraded (actuation failures)")
            }
            HealthState::Degraded(DegradeReason::ConfigDrift) => {
                write!(f, "degraded (config drift)")
            }
            HealthState::Frozen => write!(f, "frozen"),
        }
    }
}

/// Telemetry older than this marks the optimizer degraded. Two hours ≈
/// several realtime ticks and two training fetches.
pub(crate) const STALE_TELEMETRY_AFTER_MS: SimTime = 2 * 60 * 60 * 1000;
/// Consecutive actuation failures at which optimization freezes.
const FREEZE_AFTER_FAILURES: u32 = 4;

/// The live signals the state machine is evaluated from each tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthSignals {
    /// Age of the telemetry store's data.
    pub telemetry_staleness_ms: SimTime,
    /// Consecutive failed actuation/reconcile attempts.
    pub consecutive_actuation_failures: u32,
    /// Whether observed config currently differs from intent.
    pub config_drift: bool,
}

/// Evaluates [`HealthSignals`] into a [`HealthState`] and counts the ticks
/// spent in each. Journaled with the control state so the state and tick
/// counters survive a control-plane crash (the chaos KPIs are computed from
/// them).
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    pub(crate) state: HealthState,
    pub(crate) healthy_ticks: u64,
    pub(crate) degraded_ticks: u64,
    pub(crate) frozen_ticks: u64,
}

impl HealthMonitor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-evaluates the state from this tick's live signals. The evaluation is
    /// memoryless — recovery needs no explicit reset, the state simply
    /// follows the signals — and severity is ordered: frozen beats stale
    /// telemetry beats actuation trouble beats drift.
    pub fn evaluate(&mut self, signals: HealthSignals) -> HealthState {
        self.state = if signals.consecutive_actuation_failures >= FREEZE_AFTER_FAILURES {
            HealthState::Frozen
        } else if signals.telemetry_staleness_ms > STALE_TELEMETRY_AFTER_MS {
            HealthState::Degraded(DegradeReason::StaleTelemetry)
        } else if signals.consecutive_actuation_failures > 0 {
            HealthState::Degraded(DegradeReason::ActuationFailures)
        } else if signals.config_drift {
            HealthState::Degraded(DegradeReason::ConfigDrift)
        } else {
            HealthState::Healthy
        };
        match self.state {
            HealthState::Healthy => self.healthy_ticks += 1,
            HealthState::Degraded(_) => self.degraded_ticks += 1,
            HealthState::Frozen => self.frozen_ticks += 1,
        }
        self.state
    }

    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether model (re)training on stored telemetry is trustworthy.
    pub fn can_train(&self) -> bool {
        !matches!(
            self.state,
            HealthState::Degraded(DegradeReason::StaleTelemetry) | HealthState::Frozen
        )
    }

    pub fn healthy_ticks(&self) -> u64 {
        self.healthy_ticks
    }

    pub fn degraded_ticks(&self) -> u64 {
        self.degraded_ticks
    }

    pub fn frozen_ticks(&self) -> u64 {
        self.frozen_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> HealthMonitor {
        HealthMonitor::default()
    }

    #[test]
    fn starts_healthy_and_stays_healthy_on_clean_signals() {
        let mut m = fresh();
        assert_eq!(m.evaluate(HealthSignals::default()), HealthState::Healthy);
        assert!(m.can_train());
        assert_eq!(m.healthy_ticks(), 1);
    }

    #[test]
    fn stale_telemetry_degrades_and_blocks_training() {
        let mut m = fresh();
        let s = HealthSignals {
            telemetry_staleness_ms: 3 * 60 * 60 * 1000,
            ..Default::default()
        };
        assert_eq!(
            m.evaluate(s),
            HealthState::Degraded(DegradeReason::StaleTelemetry)
        );
        assert!(!m.can_train(), "stale data must not retrain models");
    }

    #[test]
    fn repeated_failures_freeze_then_recover() {
        let mut m = fresh();
        let failing = |fails| HealthSignals {
            consecutive_actuation_failures: fails,
            ..Default::default()
        };
        // Healthy→Degraded→Frozen→Healthy, as `evaluate` returns it: a
        // successful probe zeroes the failure count once the control plane
        // heals, and the machine recovers by itself.
        let signals = [1, 2, 3, 4, 0].map(failing);
        let states = signals.map(|s| {
            let state = m.evaluate(s);
            (state, m.can_train())
        });
        let degraded = HealthState::Degraded(DegradeReason::ActuationFailures);
        assert_eq!(
            states,
            [
                (degraded, true),
                (degraded, true),
                (degraded, true),
                (HealthState::Frozen, false),
                (HealthState::Healthy, true),
            ]
        );
        assert_eq!(m.frozen_ticks(), 1);
    }

    #[test]
    fn drift_is_the_mildest_degradation() {
        let mut m = fresh();
        assert_eq!(
            m.evaluate(HealthSignals {
                config_drift: true,
                ..Default::default()
            }),
            HealthState::Degraded(DegradeReason::ConfigDrift)
        );
        assert!(m.can_train(), "drift alone doesn't invalidate telemetry");
        // Stale telemetry takes precedence over drift.
        assert_eq!(
            m.evaluate(HealthSignals {
                config_drift: true,
                telemetry_staleness_ms: 9 * 60 * 60 * 1000,
                ..Default::default()
            }),
            HealthState::Degraded(DegradeReason::StaleTelemetry)
        );
    }
}
