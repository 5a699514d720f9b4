//! Decision trace: a bounded ring buffer of per-control-tick events.
//!
//! Every orchestrator tick appends one [`DecisionEvent`] capturing what the
//! controller saw (state features), what it was allowed to do (the action
//! mask with per-action masking reasons), what it chose, and the reward it
//! received for its previous action. The buffer is bounded so a fleet-scale
//! run cannot grow without bound; once full, the oldest events are dropped
//! (and counted).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Observed state features snapshot for one tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceFeatures {
    pub arrival_rate_per_hour: f64,
    pub mean_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub mean_queue_ms: f64,
    pub mean_concurrency: f64,
    pub queue_depth: usize,
    pub load_zscore: f64,
    pub latency_ratio: f64,
}

impl TraceFeatures {
    /// Replaces non-finite fields with 0.0 so the JSONL export stays
    /// round-trippable (JSON has no NaN/Inf literal).
    pub fn sanitized(mut self) -> Self {
        for f in [
            &mut self.arrival_rate_per_hour,
            &mut self.mean_latency_ms,
            &mut self.p99_latency_ms,
            &mut self.mean_queue_ms,
            &mut self.mean_concurrency,
            &mut self.load_zscore,
            &mut self.latency_ratio,
        ] {
            if !f.is_finite() {
                *f = 0.0;
            }
        }
        self
    }
}

/// One action's entry in the tick's mask: was it allowed, and if not, why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaskEntry {
    pub action: String,
    pub allowed: bool,
    /// Masking reasons, e.g. a constraint rule name (C1–C4), `slider-floor`,
    /// `perf-unhealthy`, `health:degraded-fallback`. Empty when allowed.
    pub reasons: Vec<String>,
}

/// One control tick's decision record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionEvent {
    /// Simulation time of the tick (ms).
    pub t_ms: u64,
    /// Hour index from simulation start (t_ms / 3_600_000) — the unit an
    /// operator asks in ("why did WH_A downsize at hour 412?").
    pub hour: u64,
    pub warehouse: String,
    /// Health state at decision time (`healthy`, `degraded(...)`, `frozen`).
    pub health: String,
    /// Warehouse size at decision time (e.g. `Small`).
    pub size: String,
    pub min_clusters: u32,
    pub max_clusters: u32,
    pub auto_suspend_ms: u64,
    pub features: TraceFeatures,
    /// Full action mask. Empty on ticks that never reached masking
    /// (paused, frozen, degraded-without-fallback).
    pub mask: Vec<MaskEntry>,
    /// The action taken this tick (an `AgentAction` debug name, or `NoOp`).
    pub chosen: String,
    /// Why: `policy`, `degraded-fallback`, `backoff-rollback`, `backoff`,
    /// `capacity-decay`, `paused:external-change`, `frozen`, ...
    pub reason: String,
    /// Reward credited this tick for the *previous* action (None while
    /// onboarding or when no transition was observed).
    pub reward: Option<f64>,
}

/// Bounded ring buffer of [`DecisionEvent`]s. A capacity of 0 disables
/// recording entirely.
#[derive(Debug, Clone, Default)]
pub struct DecisionTrace {
    capacity: usize,
    events: VecDeque<DecisionEvent>,
    dropped: u64,
}

impl DecisionTrace {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, evicting the oldest when full. No-op when
    /// capacity is 0.
    pub fn record(&mut self, event: DecisionEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Oldest-to-newest iteration.
    pub fn events(&self) -> impl Iterator<Item = &DecisionEvent> {
        self.events.iter()
    }

    /// All events for the given hour index.
    pub fn events_at_hour(&self, hour: u64) -> Vec<&DecisionEvent> {
        self.events.iter().filter(|e| e.hour == hour).collect()
    }

    /// Serializes the buffer as JSON Lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            // lint: allow(D5) — serializing a plain in-memory struct cannot fail
            out.push_str(&serde_json::to_string(e).expect("trace event serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL export back into events (for validation round-trips).
    pub fn parse_jsonl(text: &str) -> Result<Vec<DecisionEvent>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str::<DecisionEvent>(l).map_err(|e| format!("{e:?}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t_ms: u64, chosen: &str) -> DecisionEvent {
        DecisionEvent {
            t_ms,
            hour: t_ms / 3_600_000,
            warehouse: "WH_A".into(),
            health: "healthy".into(),
            size: "Small".into(),
            min_clusters: 1,
            max_clusters: 3,
            auto_suspend_ms: 600_000,
            features: TraceFeatures {
                arrival_rate_per_hour: 120.0,
                mean_latency_ms: 850.0,
                p99_latency_ms: 4_000.0,
                mean_queue_ms: 12.0,
                mean_concurrency: 1.5,
                queue_depth: 0,
                load_zscore: 0.2,
                latency_ratio: 1.01,
            },
            mask: vec![
                MaskEntry {
                    action: "NoOp".into(),
                    allowed: true,
                    reasons: vec![],
                },
                MaskEntry {
                    action: "SizeDown".into(),
                    allowed: false,
                    reasons: vec!["slider-floor".into()],
                },
            ],
            chosen: chosen.into(),
            reason: "policy".into(),
            reward: Some(0.42),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = DecisionTrace::new(2);
        tr.record(event(0, "NoOp"));
        tr.record(event(1, "SizeUp"));
        tr.record(event(2, "SizeDown"));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 1);
        let ts: Vec<u64> = tr.events().map(|e| e.t_ms).collect();
        assert_eq!(ts, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut tr = DecisionTrace::new(0);
        tr.record(event(0, "NoOp"));
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.to_jsonl(), "");
    }

    #[test]
    fn jsonl_round_trips() {
        let mut tr = DecisionTrace::new(8);
        tr.record(event(0, "NoOp"));
        tr.record(event(3_600_000, "SizeDown"));
        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let parsed = DecisionTrace::parse_jsonl(&text).expect("parses back");
        let original: Vec<DecisionEvent> = tr.events().cloned().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn events_at_hour_filters() {
        let mut tr = DecisionTrace::new(8);
        tr.record(event(0, "NoOp"));
        tr.record(event(3_600_000, "SizeDown"));
        tr.record(event(3_600_001, "NoOp"));
        assert_eq!(tr.events_at_hour(1).len(), 2);
        assert_eq!(tr.events_at_hour(0).len(), 1);
        assert!(tr.events_at_hour(412).is_empty());
    }

    #[test]
    fn sanitized_clears_non_finite_features() {
        let f = TraceFeatures {
            latency_ratio: f64::NAN,
            load_zscore: f64::INFINITY,
            mean_latency_ms: 10.0,
            ..TraceFeatures::default()
        }
        .sanitized();
        assert_eq!(f.latency_ratio, 0.0);
        assert_eq!(f.load_zscore, 0.0);
        assert_eq!(f.mean_latency_ms, 10.0);
    }
}
