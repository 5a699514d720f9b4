//! Telemetry metadata records — the only thing KWO is allowed to see (C6).
//!
//! These mirror Snowflake's ACCOUNT_USAGE views at the granularity the paper
//! describes in §6.1: system information (warehouse name, size, cluster
//! count), timeseries data (arrival times), and performance metrics (latency,
//! queuing delay, bytes scanned). Query text appears only as hashes.

use crate::policy::ScalingPolicy;
use crate::size::WarehouseSize;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A warehouse's name as every record of it holds it: one allocation per
/// warehouse, made by [`crate::Account::create_warehouse`], which every
/// record, telemetry-store key and optimizer naming the warehouse shares. A clone bumps a reference count; it copies no text. Eight bytes
/// (a thin pointer), compared and ordered as the text, and written
/// as a plain JSON string, so every exported or persisted byte is the text's.
#[derive(Clone)]
pub struct WarehouseName(Arc<String>);

impl WarehouseName {
    /// Whether `a` and `b` share one allocation (equal text is not enough).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for WarehouseName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for WarehouseName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for WarehouseName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for WarehouseName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.as_str(), f)
    }
}

impl PartialEq for WarehouseName {
    fn eq(&self, other: &Self) -> bool {
        Self::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for WarehouseName {}

impl PartialEq<str> for WarehouseName {
    fn eq(&self, other: &str) -> bool {
        self.0.as_str() == other
    }
}

impl PartialEq<&str> for WarehouseName {
    fn eq(&self, other: &&str) -> bool {
        self.0.as_str() == *other
    }
}

impl PartialOrd for WarehouseName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WarehouseName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl From<&str> for WarehouseName {
    fn from(name: &str) -> Self {
        Self(Arc::new(name.to_string()))
    }
}

impl From<String> for WarehouseName {
    fn from(name: String) -> Self {
        Self(Arc::new(name))
    }
}

impl Serialize for WarehouseName {
    fn write_json(&self, out: &mut String) {
        serde::write_str(&self.0, out);
    }
}

impl Deserialize for WarehouseName {
    fn from_value(v: serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(Self::from)
    }
}

/// Who initiated a configuration change — needed by the monitoring component
/// to detect *external* modifications that conflict with KWO's actions
/// (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActionSource {
    /// Keebo's actuator.
    Keebo,
    /// A human or application outside Keebo.
    External,
    /// The warehouse itself (auto-suspend, auto-resume, auto scale-out).
    System,
}

/// One completed query, as it appears in the query history view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Query id.
    pub query_id: u64,
    /// Warehouse the query ran on.
    pub warehouse: WarehouseName,
    /// Warehouse size at execution time.
    pub size: WarehouseSize,
    /// Number of clusters running when the query started.
    pub cluster_count: u32,
    /// Hash of the query text (never plaintext, per C6).
    pub text_hash: u64,
    /// Hash of the query template (text stripped of constants).
    pub template_hash: u64,
    /// Submission time.
    pub arrival: SimTime,
    /// Execution start (arrival + queue + resume waits).
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Bytes scanned.
    pub bytes_scanned: u64,
    /// Cache warm fraction seen at start (diagnostic; a real CDW exposes
    /// the closely related `percentage_scanned_from_cache`).
    pub cache_warm_fraction: f64,
}

impl QueryRecord {
    /// Time spent queued (and waiting for resume) before execution.
    pub fn queued_ms(&self) -> SimTime {
        self.start - self.arrival
    }

    /// Pure execution time.
    pub fn execution_ms(&self) -> SimTime {
        self.end - self.start
    }

    /// End-to-end latency as the user experiences it.
    pub fn total_latency_ms(&self) -> SimTime {
        self.end - self.arrival
    }
}

/// Kind of warehouse lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WarehouseEventKind {
    Created,
    Suspended,
    Resumed,
    /// Size changed; payload in [`WarehouseEventRecord::size`].
    Resized,
    /// A cluster started (scale-out or resume).
    ClusterStarted,
    /// A cluster stopped (scale-in or suspend).
    ClusterStopped,
    /// Auto-suspend interval changed.
    AutoSuspendChanged,
    /// Cluster min/max range changed.
    ClusterRangeChanged,
    /// Scaling policy changed.
    PolicyChanged,
}

/// One warehouse lifecycle event, used for action auditing and for the
/// monitoring component's external-change detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarehouseEventRecord {
    pub warehouse: WarehouseName,
    pub at: SimTime,
    pub kind: WarehouseEventKind,
    pub source: ActionSource,
    /// Size after the event.
    pub size: WarehouseSize,
    /// Running cluster count after the event.
    pub running_clusters: u32,
    /// Auto-suspend setting after the event (ms).
    pub auto_suspend_ms: SimTime,
    /// Cluster range after the event.
    pub min_clusters: u32,
    pub max_clusters: u32,
    /// Scaling policy after the event.
    pub scaling_policy: ScalingPolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> QueryRecord {
        QueryRecord {
            query_id: 1,
            warehouse: "WH".into(),
            size: WarehouseSize::Small,
            cluster_count: 2,
            text_hash: 10,
            template_hash: 20,
            arrival: 1_000,
            start: 3_500,
            end: 9_500,
            bytes_scanned: 1 << 30,
            cache_warm_fraction: 0.8,
        }
    }

    #[test]
    fn derived_durations_are_consistent() {
        let r = record();
        assert_eq!(r.queued_ms(), 2_500);
        assert_eq!(r.execution_ms(), 6_000);
        assert_eq!(r.total_latency_ms(), 8_500);
        assert_eq!(r.queued_ms() + r.execution_ms(), r.total_latency_ms());
    }

    // The JSON pins below were captured while `warehouse` was still a
    // `String`: the shared name writes the same bytes.
    #[test]
    fn query_record_serde_round_trip() {
        let r = record();
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(
            json,
            r#"{"query_id":1,"warehouse":"WH","size":"Small","cluster_count":2,"text_hash":10,"template_hash":20,"arrival":1000,"start":3500,"end":9500,"bytes_scanned":1073741824,"cache_warm_fraction":0.8}"#
        );
        let back: QueryRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn records_hold_a_pointer_sized_name() {
        assert_eq!(std::mem::size_of::<WarehouseName>(), 8);
        assert!(std::mem::size_of::<QueryRecord>() <= 80);
        assert!(std::mem::size_of::<WarehouseEventRecord>() <= 48);
    }

    #[test]
    fn a_cloned_name_shares_its_text() {
        let name = WarehouseName::from("WH");
        let copy = name.clone();
        let twin = WarehouseName::from("WH");
        assert!(WarehouseName::ptr_eq(&name, &copy));
        assert!(!WarehouseName::ptr_eq(&name, &twin));
        assert_eq!(name, twin, "equality is the text's");
        assert_eq!(name, *"WH");
        assert_eq!(format!("{name} {name:?}"), r#"WH "WH""#);
        let (a, b) = (
            WarehouseName::from("A"),
            WarehouseName::from(String::from("B")),
        );
        assert!(a < b, "ordered as the text");
    }

    #[test]
    fn event_record_serde_round_trip() {
        let e = WarehouseEventRecord {
            warehouse: "WH".into(),
            at: 42,
            kind: WarehouseEventKind::Resized,
            source: ActionSource::Keebo,
            size: WarehouseSize::Medium,
            running_clusters: 1,
            auto_suspend_ms: 60_000,
            min_clusters: 1,
            max_clusters: 3,
            scaling_policy: ScalingPolicy::Economy,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            json,
            r#"{"warehouse":"WH","at":42,"kind":"Resized","source":"Keebo","size":"Medium","running_clusters":1,"auto_suspend_ms":60000,"min_clusters":1,"max_clusters":3,"scaling_policy":"Economy"}"#
        );
        let back: WarehouseEventRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
