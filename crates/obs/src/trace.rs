//! Decision trace: the export schema of per-control-tick events.
//!
//! Every orchestrator tick leaves one record of what the controller saw
//! (state features), what it was allowed to do (the action mask with
//! per-action masking reasons), what it chose, and the reward it received
//! for its previous action. On the tick path that record is plain data in a
//! bounded ring owned by the optimizer; a [`DecisionTrace`] is what a reader
//! gets when it asks — the ring's events rendered as [`DecisionEvent`]s,
//! with the count of older ones the ring has already evicted.

use serde::{Deserialize, Serialize};

/// Observed state features snapshot for one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
    /// Why: the text of one `keebo::Reason` (`Reason::as_str`) — `policy`,
    /// `degraded-fallback`, `backoff-rollback`, `backoff`, `capacity-decay`,
    /// `paused:external-change`, `frozen`, ... The action log spells its
    /// entries' reasons the same way.
    pub reason: String,
    /// Reward credited this tick for the *previous* policy action (None
    /// when no policy action was pending one). Traced only: the DQN learns
    /// in retrain's offline episodes.
    pub reward: Option<f64>,
}

/// A rendered read of one optimizer's decision ring, oldest event first.
#[derive(Debug, Clone, Default)]
pub struct DecisionTrace {
    events: Vec<DecisionEvent>,
    dropped: u64,
}

impl DecisionTrace {
    /// `events` oldest first; `dropped` older ones were evicted before the
    /// read.
    pub fn new(events: Vec<DecisionEvent>, dropped: u64) -> Self {
        Self { events, dropped }
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
            #[expect(
                clippy::expect_used,
                reason = "serializing a plain in-memory struct cannot fail"
            )]
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
    fn jsonl_round_trips() {
        let tr = DecisionTrace::new(vec![event(0, "NoOp"), event(3_600_000, "SizeDown")], 0);
        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let parsed = DecisionTrace::parse_jsonl(&text).expect("parses back");
        let original: Vec<DecisionEvent> = tr.events().cloned().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn events_at_hour_filters() {
        let events = vec![
            event(0, "NoOp"),
            event(3_600_000, "SizeDown"),
            event(3_600_001, "NoOp"),
        ];
        let tr = DecisionTrace::new(events, 0);
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
