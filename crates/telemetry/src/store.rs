//! Time-indexed telemetry stores: the query history and billing history the
//! data-learning platform trains on (§6.1).

use cdw_sim::{HourlyCredits, QueryRecord, SimTime, WarehouseEventRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accumulated telemetry for one account, indexed for the access patterns
/// the learning stack needs: per-warehouse, time-windowed scans.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetryStore {
    /// Query history per warehouse, kept sorted by completion time.
    queries: BTreeMap<String, Vec<QueryRecord>>,
    /// Billing history per warehouse (hourly credits).
    billing: BTreeMap<String, HourlyCredits>,
    /// Warehouse lifecycle events per warehouse, sorted by time.
    events: BTreeMap<String, Vec<WarehouseEventRecord>>,
    /// Time of the last successful fetch into this store, if any. Drives
    /// staleness-aware degradation in the control plane.
    last_fetch_at: Option<SimTime>,
}

impl TelemetryStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests query records (idempotence is the fetcher's responsibility;
    /// the store trusts its input ordering only loosely and re-sorts).
    ///
    /// The hot path is the fetcher's: records arrive completion-ordered per
    /// warehouse, so appends stay sorted and nothing is re-sorted or
    /// cloned. Only a warehouse whose append actually broke the order pays
    /// a sort.
    pub fn ingest_queries(&mut self, records: impl IntoIterator<Item = QueryRecord>) {
        let mut dirty: Vec<String> = Vec::new();
        for r in records {
            if let Some(v) = self.queries.get_mut(&r.warehouse) {
                let breaks_order = v
                    .last()
                    .is_some_and(|last| (last.end, last.query_id) > (r.end, r.query_id));
                if breaks_order && !dirty.contains(&r.warehouse) {
                    dirty.push(r.warehouse.clone());
                }
                v.push(r);
            } else {
                self.queries.insert(r.warehouse.clone(), vec![r]);
            }
        }
        for wh in dirty {
            if let Some(v) = self.queries.get_mut(&wh) {
                v.sort_by_key(|r| (r.end, r.query_id));
            }
        }
    }

    /// Ingests warehouse events. Same sorted-append fast path as
    /// [`TelemetryStore::ingest_queries`]: only a warehouse whose vector
    /// actually went out of time order is re-sorted.
    pub fn ingest_events(&mut self, records: impl IntoIterator<Item = WarehouseEventRecord>) {
        let mut dirty: Vec<String> = Vec::new();
        for r in records {
            if let Some(v) = self.events.get_mut(&r.warehouse) {
                if v.last().is_some_and(|last| last.at > r.at) && !dirty.contains(&r.warehouse) {
                    dirty.push(r.warehouse.clone());
                }
                v.push(r);
            } else {
                self.events.insert(r.warehouse.clone(), vec![r]);
            }
        }
        for wh in dirty {
            if let Some(v) = self.events.get_mut(&wh) {
                v.sort_by_key(|r| r.at);
            }
        }
    }

    /// Replaces the billing history of a warehouse (billing is cumulative,
    /// so each fetch supplies the authoritative snapshot), straight off the
    /// ledger: skips the clone entirely when the snapshot is unchanged since
    /// the last fetch (the common case for suspended warehouses) and reuses
    /// the existing key otherwise.
    pub fn update_billing(&mut self, warehouse: &str, credits: &HourlyCredits) {
        match self.billing.get_mut(warehouse) {
            Some(cur) => {
                if cur != credits {
                    cur.clone_from(credits);
                }
            }
            None => {
                self.billing.insert(warehouse.to_string(), credits.clone());
            }
        }
    }

    /// Records a successful fetch at `now` (called by the fetcher).
    pub fn note_fetch_success(&mut self, now: SimTime) {
        self.last_fetch_at = Some(self.last_fetch_at.map_or(now, |t| t.max(now)));
    }

    /// Time of the last successful fetch, if any.
    pub fn last_fetch_at(&self) -> Option<SimTime> {
        self.last_fetch_at
    }

    /// Age of the store's data at `now`: elapsed time since the last
    /// successful fetch. A store that has never been fetched into is
    /// maximally stale (`now`).
    pub fn staleness_ms(&self, now: SimTime) -> SimTime {
        match self.last_fetch_at {
            Some(t) => now.saturating_sub(t),
            None => now,
        }
    }

    /// All query records for a warehouse, completion-ordered.
    pub fn queries(&self, warehouse: &str) -> &[QueryRecord] {
        self.queries
            .get(warehouse)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Query records completing within `[start, end)`.
    pub fn queries_in(&self, warehouse: &str, start: SimTime, end: SimTime) -> &[QueryRecord] {
        let all = self.queries(warehouse);
        let lo = all.partition_point(|r| r.end < start);
        let hi = all.partition_point(|r| r.end < end);
        &all[lo..hi]
    }

    /// Billing history of a warehouse.
    pub fn billing(&self, warehouse: &str) -> Option<&HourlyCredits> {
        self.billing.get(warehouse)
    }

    /// Warehouse events in `[start, end)`.
    pub fn events_in(
        &self,
        warehouse: &str,
        start: SimTime,
        end: SimTime,
    ) -> Vec<&WarehouseEventRecord> {
        self.events
            .get(warehouse)
            .map(|v| v.iter().filter(|e| (start..end).contains(&e.at)).collect())
            .unwrap_or_default()
    }

    /// Total stored query records (diagnostics).
    pub fn total_queries(&self) -> usize {
        self.queries.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::WarehouseSize;

    fn rec(id: u64, wh: &str, arrival: SimTime, end: SimTime) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: wh.into(),
            size: WarehouseSize::Small,
            cluster_count: 1,
            text_hash: id,
            template_hash: 0,
            arrival,
            start: arrival,
            end,
            bytes_scanned: 0,
            cache_warm_fraction: 0.0,
        }
    }

    #[test]
    fn ingest_sorts_by_completion() {
        let mut s = TelemetryStore::new();
        s.ingest_queries(vec![rec(2, "A", 0, 500), rec(1, "A", 0, 100)]);
        let q = s.queries("A");
        assert_eq!(q[0].query_id, 1);
        assert_eq!(q[1].query_id, 2);
    }

    #[test]
    fn windowed_scan_uses_completion_time() {
        let mut s = TelemetryStore::new();
        s.ingest_queries((0..10).map(|i| rec(i, "A", i * 10, i * 100)));
        let w = s.queries_in("A", 200, 500);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|r| (200..500).contains(&r.end)));
    }

    #[test]
    fn warehouses_are_isolated() {
        let mut s = TelemetryStore::new();
        s.ingest_queries(vec![rec(1, "A", 0, 10), rec(2, "B", 0, 20)]);
        assert_eq!(s.queries("A").len(), 1);
        assert_eq!(s.queries("B").len(), 1);
        assert_eq!(s.queries("C").len(), 0);
        assert_eq!(s.total_queries(), 2);
    }

    #[test]
    fn billing_snapshot_replaces() {
        let mut s = TelemetryStore::new();
        let mut h = HourlyCredits::new();
        h.add(0, 1.0);
        s.update_billing("A", &h);
        h.add(0, 1.0);
        s.update_billing("A", &h);
        assert_eq!(s.billing("A").unwrap().total(), 2.0);
    }

    #[test]
    fn update_billing_is_authoritative_whether_or_not_the_snapshot_changed() {
        let mut s = TelemetryStore::new();
        let mut h = HourlyCredits::new();
        h.add(0, 1.0);
        s.update_billing("A", &h);
        assert_eq!(s.billing("A"), Some(&h));
        // Unchanged snapshot: update is a no-op but stays authoritative.
        s.update_billing("A", &h);
        assert_eq!(s.billing("A").unwrap().total(), 1.0);
        // Changed snapshot replaces the stored one.
        h.add(3 * cdw_sim::HOUR_MS, 2.0);
        s.update_billing("A", &h);
        assert_eq!(s.billing("A"), Some(&h));
        assert_eq!(s.billing("A").unwrap().total(), 3.0);
    }

    #[test]
    fn out_of_order_event_ingest_is_resorted() {
        use cdw_sim::{ActionSource, WarehouseEventKind};
        let ev = |at: SimTime| WarehouseEventRecord {
            warehouse: "A".into(),
            at,
            kind: WarehouseEventKind::Resumed,
            source: ActionSource::External,
            size: WarehouseSize::Small,
            running_clusters: 1,
            auto_suspend_ms: 0,
            min_clusters: 1,
            max_clusters: 1,
            scaling_policy: Default::default(),
        };
        let mut s = TelemetryStore::new();
        s.ingest_events(vec![ev(300), ev(100), ev(200)]);
        s.ingest_events(vec![ev(150)]);
        let ats: Vec<SimTime> = s.events_in("A", 0, 1_000).iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![100, 150, 200, 300]);
    }

    #[test]
    fn incremental_ingest_maintains_order() {
        let mut s = TelemetryStore::new();
        s.ingest_queries(vec![rec(1, "A", 0, 100)]);
        s.ingest_queries(vec![rec(2, "A", 0, 50)]);
        let ends: Vec<SimTime> = s.queries("A").iter().map(|r| r.end).collect();
        assert_eq!(ends, vec![50, 100]);
    }
}
