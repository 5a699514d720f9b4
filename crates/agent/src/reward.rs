//! The reward signal (§6, design criterion C4).
//!
//! `r = −credits_spent − λ(slider) · perf_penalty`, where the performance
//! penalty aggregates queueing pressure and latency regression relative to
//! the workload's baseline. Because λ grows steeply toward the
//! "Best Performance" slider positions, the same slowdown that is tolerable
//! at "Lowest Cost" dominates the reward at "Best Performance" — which is
//! how one scalar slider re-weights every optimization at once.

use crate::action::AgentAction;
use crate::slider::SliderPosition;
use serde::{Deserialize, Serialize};

/// Performance observations over one feedback interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PerfSignals {
    /// Mean seconds queries spent queued during the interval.
    pub mean_queue_s: f64,
    /// p99 latency over the interval divided by the baseline p99 (1.0 = no
    /// regression; <1 = faster than baseline).
    pub latency_ratio: f64,
    /// Queries dropped or failed in the interval (each is heavily punished).
    pub dropped_queries: u64,
}

/// Normalization constants: one credit of spend weighs like this much of
/// the raw performance penalty at λ = 1. Calibrated so that at the Balanced
/// slider a 2x latency regression outweighs the per-interval savings of any
/// single downsizing step (C4: performance wins by default).
const QUEUE_PENALTY_PER_S: f64 = 0.05;
const LATENCY_PENALTY_SCALE: f64 = 2.0;
const DROP_PENALTY: f64 = 5.0;
/// Small friction on configuration churn: every non-NoOp action costs this
/// much, discouraging thrash (each resize also drops the cache).
const ACTION_CHURN_PENALTY: f64 = 0.05;

/// Slider-weighted performance penalty (≥ 0). Queueing and latency
/// regression scale with λ; dropped queries are catastrophic at *every*
/// slider position (no slider authorizes failing queries).
pub fn perf_penalty(perf: &PerfSignals) -> f64 {
    let queue = perf.mean_queue_s.max(0.0) * QUEUE_PENALTY_PER_S;
    let latency = (perf.latency_ratio - 1.0).max(0.0) * LATENCY_PENALTY_SCALE;
    queue + latency
}

/// Reward for one interval: negative spend minus slider-weighted penalty
/// minus the (unweighted) drop penalty.
pub fn compute_reward(credits_spent: f64, perf: &PerfSignals, slider: SliderPosition) -> f64 {
    debug_assert!(credits_spent.is_finite());
    -credits_spent
        - slider.perf_penalty_weight() * perf_penalty(perf)
        - perf.dropped_queries as f64 * DROP_PENALTY
}

/// Reward attributed to the action at index `action` of
/// [`AgentAction::ALL`] for the interval it governed: [`compute_reward`]
/// minus the churn friction. Training episodes and live feedback both call
/// this, so the policy is trained on the reward it is later scored by.
pub fn action_reward(
    action: usize,
    credits_spent: f64,
    perf: &PerfSignals,
    slider: SliderPosition,
) -> f64 {
    let churn = if action == AgentAction::NoOp.index() {
        0.0
    } else {
        ACTION_CHURN_PENALTY
    };
    compute_reward(credits_spent, perf, slider) - churn
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_perf() -> PerfSignals {
        PerfSignals {
            mean_queue_s: 0.0,
            latency_ratio: 1.0,
            dropped_queries: 0,
        }
    }

    #[test]
    fn no_penalty_at_baseline_performance() {
        assert_eq!(perf_penalty(&ok_perf()), 0.0);
        assert_eq!(
            compute_reward(2.0, &ok_perf(), SliderPosition::Balanced),
            -2.0
        );
    }

    #[test]
    fn cheaper_is_better_all_else_equal() {
        let s = SliderPosition::Balanced;
        assert!(compute_reward(1.0, &ok_perf(), s) > compute_reward(2.0, &ok_perf(), s));
    }

    #[test]
    fn faster_than_baseline_is_not_rewarded_extra() {
        // C4: savings are the goal; speedups beyond baseline don't offset
        // spend (prevents the policy from gold-plating).
        let fast = PerfSignals {
            latency_ratio: 0.5,
            ..ok_perf()
        };
        assert_eq!(
            compute_reward(1.0, &fast, SliderPosition::Balanced),
            compute_reward(1.0, &ok_perf(), SliderPosition::Balanced)
        );
    }

    #[test]
    fn slider_reweights_the_same_slowdown() {
        let slow = PerfSignals {
            mean_queue_s: 30.0,
            latency_ratio: 2.0,
            dropped_queries: 0,
        };
        let cheap = compute_reward(1.0, &slow, SliderPosition::LowestCost);
        let perf = compute_reward(1.0, &slow, SliderPosition::BestPerformance);
        assert!(perf < cheap, "performance slider punishes slowdowns harder");
        // At BestPerformance, this slowdown outweighs a full credit saved.
        let saved_but_slow = compute_reward(0.0, &slow, SliderPosition::BestPerformance);
        let spent_but_fast = compute_reward(1.0, &ok_perf(), SliderPosition::BestPerformance);
        assert!(
            spent_but_fast > saved_but_slow,
            "C4: performance over savings"
        );
    }

    #[test]
    fn at_lowest_cost_savings_can_win() {
        let slow = PerfSignals {
            mean_queue_s: 30.0,
            latency_ratio: 2.0,
            dropped_queries: 0,
        };
        let saved_but_slow = compute_reward(0.0, &slow, SliderPosition::LowestCost);
        let spent_but_fast = compute_reward(1.0, &ok_perf(), SliderPosition::LowestCost);
        assert!(
            saved_but_slow > spent_but_fast,
            "cost slider tolerates slowdown"
        );
    }

    #[test]
    fn drops_are_catastrophic_at_any_slider() {
        let dropped = PerfSignals {
            dropped_queries: 1,
            ..ok_perf()
        };
        for s in SliderPosition::ALL {
            assert!(
                compute_reward(0.0, &dropped, s) < compute_reward(3.0, &ok_perf(), s),
                "a drop outweighs 3 credits at {s:?}"
            );
        }
    }

    #[test]
    fn penalty_is_monotone_in_queueing() {
        let mut last = -1.0;
        for q in [0.0, 1.0, 10.0, 100.0] {
            let p = perf_penalty(&PerfSignals {
                mean_queue_s: q,
                latency_ratio: 1.0,
                dropped_queries: 0,
            });
            assert!(p > last);
            last = p;
        }
    }
}
