//! The monitoring component (§4.4).
//!
//! KWO continuously watches each warehouse for three reasons: (1) to feed
//! real-time performance back to the smart model so it can self-correct,
//! (2) to detect sudden load spikes or new patterns that the trained model
//! has not seen, and (3) to detect *external* modifications — an admin or
//! application changing the warehouse underneath Keebo — which immediately
//! pause optimization.

use agent::SliderPosition;
use cdw_sim::{QueryRecord, SimTime, WarehouseEventKind, WarehouseEventRecord};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use telemetry::WindowFeatures;

/// Whether a telemetry event records a *configuration* change made by
/// someone other than Keebo. Creation is setup, not interference; and
/// Keebo's own commands (and the simulator's internal scaling) must never
/// count as external.
pub fn is_external_config_change(event: &WarehouseEventRecord) -> bool {
    event.source == cdw_sim::ActionSource::External
        && matches!(
            event.kind,
            WarehouseEventKind::Resized
                | WarehouseEventKind::AutoSuspendChanged
                | WarehouseEventKind::ClusterRangeChanged
                | WarehouseEventKind::PolicyChanged
                | WarehouseEventKind::Suspended
                | WarehouseEventKind::Resumed
        )
}

/// What monitoring observed over the last feedback interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealTimeState {
    /// Window aggregates (latency, queueing, arrival rate...).
    pub window: WindowFeatures,
    /// Queries waiting right now.
    pub queue_depth: usize,
    /// Arrival-rate z-score against the trailing history (spike detector).
    pub load_zscore: f64,
    /// p99 latency over the window relative to the training baseline.
    pub latency_ratio: f64,
    /// An external (non-Keebo) configuration change was detected.
    pub external_change: bool,
    /// Monitoring wants the model to back off to a conservative action.
    pub should_back_off: bool,
}

/// Maximum spike-detector history length: two days of 10-minute intervals.
const MAX_HISTORY: usize = 288;
/// Load z-score beyond which a spike is declared.
const SPIKE_ZSCORE: f64 = 3.0;

/// The spike detector of one warehouse: its trailing per-interval arrival
/// counts, oldest first, at most [`MAX_HISTORY`] of them. It lives beside
/// the control state, not in it: a tick journals only the count it appended
/// (`TickEffects::arrivals`), so a tick record stays the same size however
/// old the warehouse is, and the snapshot carries the whole window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Monitor {
    history: VecDeque<u32>,
}

impl Monitor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arrival-rate z-score of `value` against the trailing history.
    fn zscore(&self, value: f64) -> f64 {
        if self.history.len() < 6 {
            return 0.0; // too little history to call anything a spike
        }
        let n = self.history.len() as f64;
        let mean = self.history.iter().map(|&c| f64::from(c)).sum::<f64>() / n;
        let var = self
            .history
            .iter()
            .map(|&c| (f64::from(c) - mean) * (f64::from(c) - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt().max(1e-6);
        (value - mean) / std
    }

    /// Appends one interval's arrival count, dropping the oldest once the
    /// window holds [`MAX_HISTORY`] — what `assess` does live and WAL
    /// replay does with a journaled count.
    pub fn push(&mut self, arrivals: u32) {
        if self.history.len() == MAX_HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(arrivals);
    }

    /// The count appended last, if any.
    pub fn newest(&self) -> Option<u32> {
        self.history.back().copied()
    }

    /// Assesses the interval `[now - interval, now)` and appends its arrival
    /// count to the window.
    ///
    /// `records` are completed queries overlapping the interval; `events`
    /// are the warehouse lifecycle events fetched for the same span —
    /// external-change detection is *event-based*: it fires on an
    /// External-source configuration event, not on a config diff. (A diff
    /// can't tell an admin's change from Keebo's own command applied late
    /// or half-applied; those are the reconciler's business, not a pause.)
    /// `baseline_p99_ms` is the serving baseline from training, for the
    /// latency ratio. `queue_depth` and `longest_running_ms` are live
    /// readings (a query slowed 8x by an undersizing does not *complete*
    /// for a long time — its elapsed in-flight time is the early warning);
    /// `slider` sets the back-off thresholds.
    #[allow(clippy::too_many_arguments)]
    pub fn assess(
        &mut self,
        baseline_p99_ms: f64,
        records: &[&QueryRecord],
        events: &[&WarehouseEventRecord],
        now: SimTime,
        interval_ms: SimTime,
        queue_depth: usize,
        longest_running_ms: SimTime,
        slider: SliderPosition,
    ) -> RealTimeState {
        let window = WindowFeatures::compute(records, now.saturating_sub(interval_ms), interval_ms);
        let load_zscore = self.zscore(window.arrivals as f64);
        self.push(u32::try_from(window.arrivals).unwrap_or(u32::MAX));

        let completed_ratio = if window.p99_latency_ms > 0.0 {
            window.p99_latency_ms / baseline_p99_ms
        } else {
            1.0
        };
        // An in-flight query that has already outlived the baseline p99 is
        // at least that much slower than normal.
        let inflight_ratio = longest_running_ms as f64 / baseline_p99_ms;
        let latency_ratio = completed_ratio.max(inflight_ratio);
        let external_change = events.iter().any(|e| is_external_config_change(e));
        let queue_pressure_s = window.mean_queue_ms / 1000.0;
        let should_back_off = !external_change
            && (queue_pressure_s > slider.backoff_queue_threshold_s()
                || latency_ratio > slider.backoff_latency_ratio()
                || queue_depth >= slider.backoff_queue_depth()
                || (load_zscore > SPIKE_ZSCORE && queue_depth > 0));

        RealTimeState {
            window,
            queue_depth,
            load_zscore,
            latency_ratio,
            external_change,
            should_back_off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{ActionSource, ScalingPolicy, WarehouseSize, MINUTE_MS};

    fn event(at: SimTime, kind: WarehouseEventKind, source: ActionSource) -> WarehouseEventRecord {
        WarehouseEventRecord {
            warehouse: "WH".into(),
            at,
            kind,
            source,
            size: WarehouseSize::Medium,
            running_clusters: 1,
            auto_suspend_ms: 600_000,
            min_clusters: 1,
            max_clusters: 1,
            scaling_policy: ScalingPolicy::Standard,
        }
    }

    fn rec(id: u64, arrival: SimTime, start: SimTime, end: SimTime) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: "WH".into(),
            size: WarehouseSize::Medium,
            cluster_count: 1,
            text_hash: id,
            template_hash: 0,
            arrival,
            start,
            end,
            bytes_scanned: 0,
            cache_warm_fraction: 1.0,
        }
    }

    fn assess_simple(
        m: &mut Monitor,
        baseline_p99_ms: f64,
        records: &[&QueryRecord],
        now: SimTime,
        queue: usize,
    ) -> RealTimeState {
        m.assess(
            baseline_p99_ms,
            records,
            &[],
            now,
            10 * MINUTE_MS,
            queue,
            0,
            SliderPosition::Balanced,
        )
    }

    #[test]
    fn quiet_interval_raises_nothing() {
        let mut m = Monitor::new();
        let s = assess_simple(&mut m, 10_000.0, &[], 10 * MINUTE_MS, 0);
        assert!(!s.should_back_off);
        assert!(!s.external_change);
        assert_eq!(s.load_zscore, 0.0);
    }

    #[test]
    fn external_change_detected_from_external_events() {
        let mut m = Monitor::new();
        // Someone resized the warehouse by hand mid-interval.
        let ev = event(
            5 * MINUTE_MS,
            WarehouseEventKind::Resized,
            ActionSource::External,
        );
        let s = m.assess(
            10_000.0,
            &[],
            &[&ev],
            10 * MINUTE_MS,
            10 * MINUTE_MS,
            0,
            0,
            SliderPosition::Balanced,
        );
        assert!(s.external_change);
        assert!(
            !s.should_back_off,
            "external change pauses optimization; back-off is separate"
        );
    }

    #[test]
    fn keebo_and_system_events_are_not_external_changes() {
        let mut m = Monitor::new();
        let keebo = event(MINUTE_MS, WarehouseEventKind::Resized, ActionSource::Keebo);
        let system = event(
            2 * MINUTE_MS,
            WarehouseEventKind::ClusterStarted,
            ActionSource::System,
        );
        let created = event(0, WarehouseEventKind::Created, ActionSource::External);
        let s = m.assess(
            10_000.0,
            &[],
            &[&keebo, &system, &created],
            10 * MINUTE_MS,
            10 * MINUTE_MS,
            0,
            0,
            SliderPosition::Balanced,
        );
        assert!(
            !s.external_change,
            "own actions, autoscaling, and creation must not pause optimization"
        );
    }

    #[test]
    fn external_classifier_covers_all_config_kinds() {
        for kind in [
            WarehouseEventKind::Resized,
            WarehouseEventKind::AutoSuspendChanged,
            WarehouseEventKind::ClusterRangeChanged,
            WarehouseEventKind::PolicyChanged,
            WarehouseEventKind::Suspended,
            WarehouseEventKind::Resumed,
        ] {
            assert!(is_external_config_change(&event(
                0,
                kind,
                ActionSource::External
            )));
            assert!(!is_external_config_change(&event(
                0,
                kind,
                ActionSource::Keebo
            )));
            assert!(!is_external_config_change(&event(
                0,
                kind,
                ActionSource::System
            )));
        }
        assert!(!is_external_config_change(&event(
            0,
            WarehouseEventKind::Created,
            ActionSource::External
        )));
    }

    #[test]
    fn heavy_queueing_triggers_backoff() {
        let mut m = Monitor::new();
        // Queries queued ~60 s each (Balanced threshold is 15 s).
        let now = 10 * MINUTE_MS;
        let recs: Vec<QueryRecord> = (0..5)
            .map(|i| {
                rec(
                    i,
                    now - 300_000,
                    now - 300_000 + 60_000,
                    now - 100_000 + i * 1000,
                )
            })
            .collect();
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let s = assess_simple(&mut m, 10_000.0, &refs, now, 3);
        assert!(s.window.mean_queue_ms >= 60_000.0);
        assert!(s.should_back_off);
    }

    #[test]
    fn long_inflight_query_triggers_backoff_before_completion() {
        let mut m = Monitor::new();
        // No completions at all, but one query has been running for 60 s —
        // six times the baseline, well past Balanced's 1.6x threshold.
        let s = m.assess(
            10_000.0, // baseline p99 = 10 s
            &[],
            &[],
            10 * MINUTE_MS,
            10 * MINUTE_MS,
            0,
            60_000,
            SliderPosition::Balanced,
        );
        assert!(s.latency_ratio > 5.0);
        assert!(s.should_back_off);
    }

    #[test]
    fn latency_regression_triggers_backoff() {
        let mut m = Monitor::new();
        let now = 10 * MINUTE_MS;
        // Queries now take 10 s end-to-end: ratio 10 > 1.6.
        let recs: Vec<QueryRecord> = (0..5)
            .map(|i| rec(i, now - 60_000 + i, now - 60_000 + i, now - 50_000 + i))
            .collect();
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let s = assess_simple(&mut m, 1_000.0, &refs, now, 0); // baseline p99 = 1 s
        assert!(s.latency_ratio > 5.0);
        assert!(s.should_back_off);
    }

    #[test]
    fn slider_changes_backoff_sensitivity() {
        // Mean queue of ~30 s: backs off at Balanced (15 s) but not at
        // LowestCost (120 s).
        let now = 10 * MINUTE_MS;
        let recs: Vec<QueryRecord> = (0..5)
            .map(|i| rec(i, now - 100_000, now - 70_000, now - 60_000 + i))
            .collect();
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let mut m1 = Monitor::new();
        let balanced = m1.assess(
            1_000_000.0,
            &refs,
            &[],
            now,
            10 * MINUTE_MS,
            0,
            0,
            SliderPosition::Balanced,
        );
        let mut m2 = Monitor::new();
        let cheap = m2.assess(
            1_000_000.0,
            &refs,
            &[],
            now,
            10 * MINUTE_MS,
            0,
            0,
            SliderPosition::LowestCost,
        );
        assert!(balanced.should_back_off);
        assert!(!cheap.should_back_off);
    }

    #[test]
    fn the_window_keeps_the_newest_counts_and_scores_them_as_floats_did() {
        // The `Vec<f64>` window this ring replaced, as its reference.
        let mut floats: Vec<f64> = Vec::new();
        let mut m = Monitor::new();
        for i in 0..(MAX_HISTORY as u32 + 40) {
            let count = (i * 7_919) % 97;
            m.push(count);
            floats.push(f64::from(count));
            if floats.len() > MAX_HISTORY {
                floats.remove(0);
            }
            let n = floats.len() as f64;
            let mean = floats.iter().sum::<f64>() / n;
            let var = floats.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let want = if floats.len() < 6 {
                0.0
            } else {
                (50.0 - mean) / var.sqrt().max(1e-6)
            };
            assert_eq!(m.zscore(50.0).to_bits(), want.to_bits(), "after {i}");
            assert_eq!(m.newest(), Some(count));
        }
        assert_eq!(m.history.len(), MAX_HISTORY);
        assert!(m.history.iter().map(|&c| f64::from(c)).eq(floats));
    }

    #[test]
    fn spike_detection_needs_history_and_queueing() {
        let mut m = Monitor::new();
        let now0 = 10 * MINUTE_MS;
        // Build 10 intervals of ~2 arrivals each.
        for i in 0..10u64 {
            let t = now0 + i * 10 * MINUTE_MS;
            let recs: Vec<QueryRecord> = (0..2)
                .map(|j| rec(i * 10 + j, t - 60_000 + j, t - 60_000 + j, t - 50_000 + j))
                .collect();
            let refs: Vec<&QueryRecord> = recs.iter().collect();
            let s = assess_simple(&mut m, 1_000_000.0, &refs, t, 0);
            assert!(!s.should_back_off, "steady load is not a spike");
        }
        // Now a 50-arrival interval with queueing.
        let t = now0 + 10 * 10 * MINUTE_MS;
        let recs: Vec<QueryRecord> = (0..50)
            .map(|j| rec(1000 + j, t - 60_000 + j, t - 60_000 + j, t - 50_000 + j))
            .collect();
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let s = assess_simple(&mut m, 1_000_000.0, &refs, t, 5);
        assert!(s.load_zscore > 3.0, "zscore {}", s.load_zscore);
        assert!(s.should_back_off);
    }
}
