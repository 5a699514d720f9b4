//! Time-indexed telemetry store: the query history and warehouse events the
//! data-learning platform trains on (§6.1). A derived view of the account
//! stream up to the fetcher's cursors, which is why it is never persisted.

use cdw_sim::{QueryRecord, SimTime, WarehouseEventRecord, WarehouseName};
use std::collections::BTreeMap;

/// Accumulated telemetry of an account ([`TelemetryStore::new`]) or of one
/// warehouse ([`TelemetryStore::for_warehouse`]), indexed for the access
/// patterns the learning stack needs: per-warehouse, time-windowed scans.
/// Keys and records hold the account's shared name handles, so ingest
/// copies no name text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryStore {
    /// When set, records of every other warehouse are dropped at ingest.
    only: Option<WarehouseName>,
    /// Query history per warehouse, kept sorted by completion time.
    queries: BTreeMap<WarehouseName, Vec<QueryRecord>>,
    /// Warehouse lifecycle events per warehouse, sorted by time.
    events: BTreeMap<WarehouseName, Vec<WarehouseEventRecord>>,
}

impl TelemetryStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that keeps `warehouse`'s partition only (what one optimizer reads).
    pub fn for_warehouse(warehouse: WarehouseName) -> Self {
        Self {
            only: Some(warehouse),
            ..Self::default()
        }
    }

    fn keeps(&self, warehouse: &WarehouseName) -> bool {
        self.only.as_ref().is_none_or(|w| w == warehouse)
    }

    /// Ingests query records (idempotence is the fetcher's responsibility;
    /// the store trusts its input ordering only loosely and re-sorts),
    /// skipping other partitions' records before they are cloned.
    ///
    /// The hot path is the fetcher's: records arrive completion-ordered per
    /// warehouse, so appends stay sorted and nothing is re-sorted. Only a
    /// warehouse whose append actually broke the order pays a sort.
    pub fn ingest_queries(&mut self, records: &[QueryRecord]) {
        let mut dirty: Vec<&str> = Vec::new();
        for r in records {
            if !self.keeps(&r.warehouse) {
                continue;
            }
            if let Some(v) = self.queries.get_mut(&*r.warehouse) {
                let breaks_order = v
                    .last()
                    .is_some_and(|last| (last.end, last.query_id) > (r.end, r.query_id));
                if breaks_order && !dirty.contains(&&*r.warehouse) {
                    dirty.push(&r.warehouse);
                }
                v.push(r.clone());
            } else {
                self.queries.insert(r.warehouse.clone(), vec![r.clone()]);
            }
        }
        for wh in dirty {
            if let Some(v) = self.queries.get_mut(wh) {
                v.sort_by_key(|r| (r.end, r.query_id));
            }
        }
    }

    /// Ingests warehouse events. Same partition filter and sorted-append
    /// fast path as [`TelemetryStore::ingest_queries`]: only a warehouse
    /// whose vector actually went out of time order is re-sorted.
    pub fn ingest_events(&mut self, records: &[WarehouseEventRecord]) {
        let mut dirty: Vec<&str> = Vec::new();
        for r in records {
            if !self.keeps(&r.warehouse) {
                continue;
            }
            if let Some(v) = self.events.get_mut(&*r.warehouse) {
                if v.last().is_some_and(|last| last.at > r.at) && !dirty.contains(&&*r.warehouse) {
                    dirty.push(&r.warehouse);
                }
                v.push(r.clone());
            } else {
                self.events.insert(r.warehouse.clone(), vec![r.clone()]);
            }
        }
        for wh in dirty {
            if let Some(v) = self.events.get_mut(wh) {
                v.sort_by_key(|r| r.at);
            }
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

    /// Forgets `warehouse`'s events before `cursor` (an event at `cursor`
    /// stays). For a reader that only ever asks [`TelemetryStore::events_in`]
    /// from a cursor onward, so that a long-running process does not keep
    /// every event it has ever seen.
    pub fn prune_events_before(&mut self, warehouse: &str, cursor: SimTime) {
        if let Some(v) = self.events.get_mut(warehouse) {
            v.drain(..v.partition_point(|e| e.at < cursor));
        }
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
        s.ingest_queries(&[rec(2, "A", 0, 500), rec(1, "A", 0, 100)]);
        let q = s.queries("A");
        assert_eq!(q[0].query_id, 1);
        assert_eq!(q[1].query_id, 2);
    }

    #[test]
    fn windowed_scan_uses_completion_time() {
        let mut s = TelemetryStore::new();
        let records: Vec<QueryRecord> = (0..10).map(|i| rec(i, "A", i * 10, i * 100)).collect();
        s.ingest_queries(&records);
        let w = s.queries_in("A", 200, 500);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|r| (200..500).contains(&r.end)));
    }

    #[test]
    fn warehouses_are_isolated() {
        let mut s = TelemetryStore::new();
        s.ingest_queries(&[rec(1, "A", 0, 10), rec(2, "B", 0, 20)]);
        assert_eq!(s.queries("A").len(), 1);
        assert_eq!(s.queries("B").len(), 1);
        assert_eq!(s.queries("C").len(), 0);
        assert_eq!(s.total_queries(), 2);
        // A one-warehouse store drops foreign records and keeps its own in
        // completion order.
        let mut b = TelemetryStore::for_warehouse("B".into());
        b.ingest_queries(&[rec(3, "B", 0, 30), rec(1, "A", 0, 10), rec(2, "B", 0, 20)]);
        let ids: Vec<u64> = b.queries("B").iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(b.queries("A").len(), 0);
        assert_eq!(b.total_queries(), 2);
    }

    fn ev(warehouse: &str, at: SimTime) -> WarehouseEventRecord {
        use cdw_sim::{ActionSource, WarehouseEventKind};
        WarehouseEventRecord {
            warehouse: warehouse.into(),
            at,
            kind: WarehouseEventKind::Resumed,
            source: ActionSource::External,
            size: WarehouseSize::Small,
            running_clusters: 1,
            auto_suspend_ms: 0,
            min_clusters: 1,
            max_clusters: 1,
            scaling_policy: Default::default(),
        }
    }

    #[test]
    fn pruning_keeps_the_cursor_and_everything_after_it() {
        let ats = |s: &TelemetryStore, wh: &str| -> Vec<SimTime> {
            s.events_in(wh, 0, SimTime::MAX)
                .iter()
                .map(|e| e.at)
                .collect()
        };
        let mut s = TelemetryStore::new();
        s.ingest_events(&[
            ev("A", 100),
            ev("A", 200),
            ev("A", 200),
            ev("B", 50),
            ev("A", 300),
        ]);
        s.prune_events_before("A", 200);
        assert_eq!(
            ats(&s, "A"),
            [200, 200, 300],
            "an event on the cursor is kept"
        );
        assert_eq!(ats(&s, "B"), [50], "other warehouses are not touched");
        // A batch delivered late (a partial fetch's remainder) sorts in
        // behind what is kept, and the next prune takes what is stale of it.
        s.ingest_events(&[ev("A", 250), ev("A", 150), ev("A", 350)]);
        assert_eq!(ats(&s, "A"), [150, 200, 200, 250, 300, 350]);
        s.prune_events_before("A", 250);
        assert_eq!(ats(&s, "A"), [250, 300, 350]);
        // Idempotent, total, and a no-op for a warehouse never seen.
        s.prune_events_before("A", 250);
        s.prune_events_before("C", 1_000);
        assert_eq!(ats(&s, "A"), [250, 300, 350]);
        s.prune_events_before("A", SimTime::MAX);
        assert!(ats(&s, "A").is_empty());
    }

    #[test]
    fn out_of_order_event_ingest_is_resorted() {
        let ev = |at: SimTime| ev("A", at);
        let mut s = TelemetryStore::new();
        s.ingest_events(&[ev(300), ev(100), ev(200)]);
        s.ingest_events(&[ev(150)]);
        let ats: Vec<SimTime> = s.events_in("A", 0, 1_000).iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![100, 150, 200, 300]);
    }

    #[test]
    fn incremental_ingest_maintains_order() {
        let mut s = TelemetryStore::new();
        s.ingest_queries(&[rec(1, "A", 0, 100)]);
        s.ingest_queries(&[rec(2, "A", 0, 50)]);
        let ends: Vec<SimTime> = s.queries("A").iter().map(|r| r.end).collect();
        assert_eq!(ends, vec![50, 100]);
    }
}
