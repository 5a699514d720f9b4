//! Periodic telemetry fetching with overhead accounting.
//!
//! Algorithm 1 (line 14) reads telemetry every `T` hours. In production that
//! read is itself a set of metadata queries against the customer's CDW, so
//! it costs credits; §7.3 stresses that Keebo engineered this overhead to be
//! "negligibly small" by piggybacking on running warehouses and batching
//! queries. The fetcher models both the pull and its cost: every fetch
//! charges a small, per-record-batched overhead to the account's overhead
//! ledger — which is exactly the red series of Fig. 6.
//!
//! The fetcher is also all of telemetry that a control plane journals: two
//! cursors into the account's append-only stream, and the time of the last
//! successful fetch — the one product of a fetch the stream cannot give
//! back. The store is a derived view, rebuilt by [`TelemetryFetcher::redeliver`].

use crate::store::TelemetryStore;
use cdw_sim::{Account, SimTime, TelemetryFault};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cumulative fetcher statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FetchStats {
    pub fetches: u64,
    pub overhead_credits: f64,
    /// Fetch attempts that failed outright (telemetry outage).
    pub failed_fetches: u64,
    /// Fetches that succeeded but delivered only part of the new records.
    pub partial_fetches: u64,
}

/// A telemetry fetch attempt that produced no usable data. The cursors are
/// unmoved, so the next attempt re-reads from the same position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchError {
    /// The metadata queries timed out or the service was unreachable.
    Outage,
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Outage => write!(f, "telemetry fetch failed: service outage"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Fixed credit cost per fetch round-trip (metadata queries batched into
/// one, per §7.3). With [`COST_PER_1K_RECORDS`], chosen so that a typical
/// hourly fetch costs ~0.003 credits — two orders of magnitude below typical
/// hourly usage, matching Fig. 6's "negligibly small" overhead.
const BASE_COST_PER_FETCH: f64 = 0.002;
/// Marginal credit cost per 1000 records transferred.
const COST_PER_1K_RECORDS: f64 = 0.001;

/// Pulls telemetry from an [`Account`] into a [`TelemetryStore`].
#[derive(Debug, Clone, Default)]
pub struct TelemetryFetcher {
    /// Index of the next unconsumed query record in the account stream.
    query_cursor: usize,
    /// Index of the next unconsumed event record.
    event_cursor: usize,
    /// Time of the last fetch that delivered, if any.
    last_success_at: Option<SimTime>,
    stats: FetchStats,
}

impl TelemetryFetcher {
    pub fn new() -> Self {
        Self::default()
    }

    /// The fetcher a journal recorded: its cursors (as [`Self::cursors`]
    /// gives them), its last successful fetch and its statistics.
    pub fn from_parts(
        (query_cursor, event_cursor): (usize, usize),
        last_success_at: Option<SimTime>,
        stats: FetchStats,
    ) -> Self {
        Self {
            query_cursor,
            event_cursor,
            last_success_at,
            stats,
        }
    }

    /// The query and event cursors into the account's stream.
    pub fn cursors(&self) -> (usize, usize) {
        (self.query_cursor, self.event_cursor)
    }

    /// Fetches new records from the account into the store, charging
    /// overhead credits at `now`. Returns the number of new query records
    /// ingested.
    ///
    /// `fault` is what the control plane did to this attempt (callers probe
    /// it via `Simulator::poll_telemetry_fault`; pass
    /// [`TelemetryFault::None`] when fetching outside a simulator):
    ///
    /// * `Outage` — the metadata queries failed. The base round-trip cost is
    ///   still charged (the queries ran and timed out), the cursors stay
    ///   put, and staleness keeps growing.
    /// * `Partial { keep_fraction }` — only a prefix of the new records
    ///   arrives; the cursors advance past exactly what was delivered, so
    ///   the remainder comes on a later fetch. This still counts as a
    ///   successful (fresh) fetch — data is delayed, not lost.
    pub fn fetch(
        &mut self,
        account: &mut Account,
        store: &mut TelemetryStore,
        now: SimTime,
        fault: TelemetryFault,
    ) -> Result<usize, FetchError> {
        if let TelemetryFault::Outage = fault {
            account.charge_overhead(now, BASE_COST_PER_FETCH);
            keebo_obs::global().counter("telemetry.fetch.outages").inc();
            self.stats.failed_fetches += 1;
            self.stats.overhead_credits += BASE_COST_PER_FETCH;
            return Err(FetchError::Outage);
        }

        let query_records = account.query_records().len();
        let event_records = account.event_records().len();
        let mut n_queries = query_records.saturating_sub(self.query_cursor);
        let mut n_events = event_records.saturating_sub(self.event_cursor);
        if let TelemetryFault::Partial { keep_fraction } = fault {
            let f = keep_fraction.clamp(0.0, 1.0);
            n_queries = (n_queries as f64 * f).floor() as usize;
            n_events = (n_events as f64 * f).floor() as usize;
            keebo_obs::global()
                .counter("telemetry.fetch.partials")
                .inc();
            self.stats.partial_fetches += 1;
        }
        self.deliver(
            account,
            store,
            self.query_cursor + n_queries,
            self.event_cursor + n_events,
        );
        self.last_success_at = self.last_success_at.max(Some(now));

        let records = (n_queries + n_events) as f64;
        let cost = BASE_COST_PER_FETCH + COST_PER_1K_RECORDS * records / 1000.0;
        account.charge_overhead(now, cost);

        self.stats.fetches += 1;
        self.stats.overhead_credits += cost;
        Ok(n_queries)
    }

    /// Recovery's half of a fetch: delivers again what the original fetches
    /// delivered — the records between this fetcher's cursors and those of
    /// `after`, the fetcher state journaled once they completed — and
    /// charges nothing, because the account paid before the crash. One
    /// delivery of a range equals the incremental ones that first covered
    /// it (append-only stream, total query sort key, stable event re-sort):
    /// a fresh fetcher rebuilds a whole store from a snapshot's cursors.
    pub fn redeliver(
        &mut self,
        account: &Account,
        store: &mut TelemetryStore,
        after: &TelemetryFetcher,
    ) {
        self.deliver(account, store, after.query_cursor, after.event_cursor);
    }

    /// Whether `account`'s stream reaches this fetcher's cursors (else
    /// [`Self::redeliver`] towards them clamps).
    pub fn covered_by(&self, account: &Account) -> bool {
        self.query_cursor <= account.query_records().len()
            && self.event_cursor <= account.event_records().len()
    }

    /// Delivers the account's records from the cursors up to `query_end` /
    /// `event_end` into the store.
    fn deliver(
        &mut self,
        account: &Account,
        store: &mut TelemetryStore,
        query_end: usize,
        event_end: usize,
    ) {
        let queries = account.query_records();
        let events = account.event_records();
        // Clamp defensively: a corrupt replayed record must degrade, not
        // panic.
        let q0 = self.query_cursor.min(queries.len());
        let q1 = query_end.min(queries.len()).max(q0);
        let e0 = self.event_cursor.min(events.len());
        let e1 = event_end.min(events.len()).max(e0);
        store.ingest_queries(&queries[q0..q1]);
        store.ingest_events(&events[e0..e1]);
        self.query_cursor = q1;
        self.event_cursor = e1;
    }

    /// Time of the last fetch that delivered, if any.
    pub fn last_success_at(&self) -> Option<SimTime> {
        self.last_success_at
    }

    /// Age of the fetched data at `now`; a fetcher that never succeeded is
    /// maximally stale (`now`). Drives staleness-aware degradation.
    pub fn staleness_ms(&self, now: SimTime) -> SimTime {
        self.last_success_at.map_or(now, |t| now.saturating_sub(t))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{
        ActionSource, QuerySpec, Simulator, WarehouseCommand, WarehouseConfig, WarehouseSize,
        HOUR_MS,
    };

    fn sim_with_queries(n: u64) -> Simulator {
        let mut acc = Account::new();
        let id = acc.create_warehouse(
            "WH",
            WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(60),
        );
        let mut sim = Simulator::new(acc);
        for i in 0..n {
            sim.submit_query(
                id,
                QuerySpec::builder(i)
                    .work_ms_xs(5_000.0)
                    .arrival_ms(i * 10_000)
                    .build(),
            );
        }
        sim.run_until(HOUR_MS);
        sim
    }

    #[test]
    fn fetch_moves_all_records_once() {
        let mut sim = sim_with_queries(5);
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        let n = fetcher
            .fetch(sim.account_mut(), &mut store, HOUR_MS, TelemetryFault::None)
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(store.total_queries(), 5);
        // Second fetch with nothing new.
        let n2 = fetcher
            .fetch(sim.account_mut(), &mut store, HOUR_MS, TelemetryFault::None)
            .unwrap();
        assert_eq!(n2, 0);
        assert_eq!(store.total_queries(), 5, "no duplicates");
    }

    #[test]
    fn fetch_charges_overhead() {
        let mut sim = sim_with_queries(3);
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        fetcher
            .fetch(sim.account_mut(), &mut store, HOUR_MS, TelemetryFault::None)
            .unwrap();
        let overhead = sim.account().ledger().overhead().total();
        assert!(overhead > 0.0);
        assert!(
            overhead < 0.01,
            "overhead {overhead} should be negligible (Fig. 6)"
        );
        assert_eq!(fetcher.stats().overhead_credits, overhead);
        assert_eq!(fetcher.stats().fetches, 1);
    }

    #[test]
    fn incremental_fetch_picks_up_new_work() {
        let mut sim = sim_with_queries(2);
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        fetcher
            .fetch(sim.account_mut(), &mut store, HOUR_MS, TelemetryFault::None)
            .unwrap();
        // More work arrives.
        let wh = sim.account().warehouse_id("WH").unwrap();
        sim.submit_query(
            wh,
            QuerySpec::builder(100)
                .work_ms_xs(1_000.0)
                .arrival_ms(HOUR_MS + 1)
                .build(),
        );
        sim.run_until(2 * HOUR_MS);
        let n = fetcher
            .fetch(
                sim.account_mut(),
                &mut store,
                2 * HOUR_MS,
                TelemetryFault::None,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(store.total_queries(), 3);
    }

    #[test]
    fn events_flow_through() {
        let mut sim = sim_with_queries(1);
        let wh = sim.account().warehouse_id("WH").unwrap();
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetSize(WarehouseSize::Small),
            ActionSource::External,
        )
        .unwrap();
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        fetcher
            .fetch(sim.account_mut(), &mut store, HOUR_MS, TelemetryFault::None)
            .unwrap();
        let events = store.events_in("WH", 0, 2 * HOUR_MS);
        assert!(
            events.iter().any(|e| e.source == ActionSource::External),
            "external resize event visible to monitoring"
        );
    }

    #[test]
    fn outage_leaves_cursors_unmoved_but_charges_base_cost() {
        let mut sim = sim_with_queries(4);
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        let err = fetcher
            .fetch(
                sim.account_mut(),
                &mut store,
                HOUR_MS,
                TelemetryFault::Outage,
            )
            .unwrap_err();
        assert_eq!(err, FetchError::Outage);
        assert_eq!(store.total_queries(), 0);
        assert_eq!(fetcher.last_success_at(), None);
        assert_eq!(fetcher.stats().failed_fetches, 1);
        let overhead = sim.account().ledger().overhead().total();
        assert!(overhead > 0.0, "attempt still billed");
        // Retry succeeds and picks up everything.
        let n = fetcher
            .fetch(
                sim.account_mut(),
                &mut store,
                2 * HOUR_MS,
                TelemetryFault::None,
            )
            .unwrap();
        assert_eq!(n, 4);
        assert_eq!(fetcher.last_success_at(), Some(2 * HOUR_MS));
    }

    #[test]
    fn partial_fetch_delivers_prefix_and_rest_later() {
        let mut sim = sim_with_queries(10);
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        let n = fetcher
            .fetch(
                sim.account_mut(),
                &mut store,
                HOUR_MS,
                TelemetryFault::Partial { keep_fraction: 0.5 },
            )
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(store.total_queries(), 5);
        assert_eq!(fetcher.stats().partial_fetches, 1);
        // Undelivered records arrive on the next clean fetch, no duplicates.
        let n2 = fetcher
            .fetch(
                sim.account_mut(),
                &mut store,
                2 * HOUR_MS,
                TelemetryFault::None,
            )
            .unwrap();
        assert_eq!(n2, 5);
        assert_eq!(store.total_queries(), 10);
    }

    #[test]
    fn staleness_grows_across_outages_and_resets_on_success() {
        let mut sim = sim_with_queries(2);
        let mut store = TelemetryStore::new();
        let mut fetcher = TelemetryFetcher::new();
        fetcher
            .fetch(sim.account_mut(), &mut store, HOUR_MS, TelemetryFault::None)
            .unwrap();
        assert_eq!(fetcher.staleness_ms(HOUR_MS), 0);
        for k in 1..=3 {
            let at = HOUR_MS + k * HOUR_MS;
            assert!(fetcher
                .fetch(sim.account_mut(), &mut store, at, TelemetryFault::Outage)
                .is_err());
            assert_eq!(fetcher.staleness_ms(at), k * HOUR_MS);
        }
        fetcher
            .fetch(
                sim.account_mut(),
                &mut store,
                5 * HOUR_MS,
                TelemetryFault::None,
            )
            .unwrap();
        assert_eq!(fetcher.staleness_ms(5 * HOUR_MS), 0);
    }
}
