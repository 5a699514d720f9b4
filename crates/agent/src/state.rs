//! The state vector the Q-network sees.
//!
//! Features are drawn from exactly what the smart model is allowed to know
//! (§6.1): telemetry-derived load and performance aggregates, the current
//! configuration, cyclical time-of-day/week (so recurring patterns are
//! learnable), and the slider position.

use crate::slider::SliderPosition;
use cdw_sim::{SimTime, WarehouseConfig};
use telemetry::WindowFeatures;

/// Dimension of [`AgentState::features`].
pub const STATE_DIM: usize = 14;

/// Snapshot of everything the policy conditions on at one decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentState {
    pub now: SimTime,
    /// Features of the most recent feedback window.
    pub window: WindowFeatures,
    /// Current configuration.
    pub config: WarehouseConfig,
    /// Queries waiting right now (live reading, not windowed).
    pub queue_depth: usize,
    /// Cache warm fraction right now.
    pub cache_warm: f64,
    /// Whether the warehouse is currently suspended.
    pub suspended: bool,
    /// Slider position.
    pub slider: SliderPosition,
}

impl AgentState {
    /// [`AgentState::features`] as a vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.features().to_vec()
    }

    /// Encodes the state as a fixed-length feature vector. Scales are chosen
    /// so typical values land in roughly [-1, 2].
    pub fn features(&self) -> [f64; STATE_DIM] {
        let two_pi = std::f64::consts::TAU;
        let day_frac = cdw_sim::time::time_of_day_fraction(self.now);
        let week_frac = (cdw_sim::time::day_index(self.now) % 7) as f64 / 7.0 + day_frac / 7.0;
        [
            (two_pi * day_frac).sin(),
            (two_pi * day_frac).cos(),
            (two_pi * week_frac).sin(),
            (two_pi * week_frac).cos(),
            (self.window.arrival_rate_per_hour / 100.0).min(10.0),
            (self.window.mean_latency_ms / 10_000.0).min(10.0),
            (self.window.mean_queue_ms / 10_000.0).min(10.0),
            self.window.mean_concurrency.min(100.0) / 8.0,
            (self.queue_depth as f64 / 8.0).min(10.0),
            self.cache_warm,
            self.config.size.index() as f64 / 9.0,
            self.config.max_clusters as f64 / 10.0,
            (self.config.auto_suspend_ms as f64 / 600_000.0).min(6.0),
            self.slider.as_feature(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{WarehouseSize, HOUR_MS};

    fn state_at(now: SimTime) -> AgentState {
        AgentState {
            now,
            window: WindowFeatures::empty(now.saturating_sub(HOUR_MS), HOUR_MS),
            config: WarehouseConfig::new(WarehouseSize::Medium),
            queue_depth: 0,
            cache_warm: 0.5,
            suspended: false,
            slider: SliderPosition::Balanced,
        }
    }

    #[test]
    fn vector_has_declared_dimension() {
        assert_eq!(state_at(0).to_vec().len(), STATE_DIM);
    }

    #[test]
    fn time_features_are_cyclical() {
        let midnight = state_at(0).to_vec();
        let next_midnight = state_at(7 * 24 * HOUR_MS).to_vec();
        for i in 0..4 {
            assert!(
                (midnight[i] - next_midnight[i]).abs() < 1e-9,
                "feature {i} should repeat weekly"
            );
        }
        let noon = state_at(12 * HOUR_MS).to_vec();
        assert!((midnight[0] - noon[0]).abs() > 0.5 || (midnight[1] - noon[1]).abs() > 0.5);
    }

    #[test]
    fn features_are_bounded_under_extreme_load() {
        let mut s = state_at(0);
        s.window.arrival_rate_per_hour = 1e9;
        s.window.mean_latency_ms = 1e12;
        s.window.mean_queue_ms = 1e12;
        s.window.mean_concurrency = 1e9;
        s.queue_depth = usize::MAX / 2;
        let v = s.to_vec();
        assert!(v.iter().all(|x| x.is_finite() && x.abs() <= 15.0), "{v:?}");
    }

    #[test]
    fn config_features_reflect_knobs() {
        let mut s = state_at(0);
        let base = s.to_vec();
        s.config.size = WarehouseSize::X6Large;
        s.config.max_clusters = 10;
        let big = s.to_vec();
        assert!(big[10] > base[10]);
        assert_eq!(big[10], 1.0);
        assert_eq!(big[11], 1.0);
    }

    #[test]
    fn slider_feature_passthrough() {
        let mut s = state_at(0);
        s.slider = SliderPosition::BestPerformance;
        assert_eq!(s.to_vec()[13], 1.0);
    }
}
