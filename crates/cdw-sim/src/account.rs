//! A customer account: a set of named warehouses plus the billing ledger and
//! telemetry record streams shared by all of them.

use crate::api::{AlterError, WarehouseCommand};
use crate::billing::BillingLedger;
use crate::config::WarehouseConfig;
use crate::records::{
    ActionSource, QueryRecord, WarehouseEventKind, WarehouseEventRecord, WarehouseName,
};
use crate::time::SimTime;
use crate::warehouse::{Warehouse, WhContext, WhEvent};
use std::collections::BTreeMap;

/// Opaque handle to a warehouse within an [`Account`]. Indexes are stable
/// for the lifetime of the account (warehouses are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WarehouseId(pub(crate) usize);

impl WarehouseId {
    /// Raw index (useful for dense per-warehouse arrays in callers).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Snapshot of a warehouse's externally visible configuration and state,
/// as a monitoring component would read it via `SHOW WAREHOUSES`.
#[derive(Debug, Clone, PartialEq)]
pub struct WarehouseDescription {
    pub name: WarehouseName,
    pub config: WarehouseConfig,
    pub is_suspended: bool,
    pub running_clusters: u32,
    pub queued_queries: usize,
    pub running_queries: usize,
}

/// A customer account holding warehouses, billing, and telemetry streams.
#[derive(Debug, Default)]
pub struct Account {
    warehouses: Vec<Warehouse>,
    by_name: BTreeMap<WarehouseName, WarehouseId>,
    ledger: BillingLedger,
    query_records: Vec<QueryRecord>,
    event_records: Vec<WarehouseEventRecord>,
}

impl Account {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an account holding `warehouses` in one shot — the fleet
    /// controller stamps out many shard-local accounts from spec lists, so
    /// construction takes `(name, config)` pairs directly.
    ///
    /// # Panics
    /// Panics on duplicate names or invalid configs, like
    /// [`Account::create_warehouse`].
    pub fn with_warehouses<'a, I>(warehouses: I) -> (Self, Vec<WarehouseId>)
    where
        I: IntoIterator<Item = (&'a str, WarehouseConfig)>,
    {
        let mut account = Self::new();
        let ids = warehouses
            .into_iter()
            .map(|(name, config)| account.create_warehouse(name, config))
            .collect();
        (account, ids)
    }

    /// Creates a warehouse. Names must be unique.
    ///
    /// # Panics
    /// Panics on duplicate names or invalid configs (programming errors in
    /// experiment setup).
    pub fn create_warehouse(&mut self, name: &str, config: WarehouseConfig) -> WarehouseId {
        assert!(
            !self.by_name.contains_key(name),
            "warehouse {name} already exists"
        );
        let id = WarehouseId(self.warehouses.len());
        // The warehouse's one name allocation: every record shares it.
        let name = WarehouseName::from(name);
        let wh = Warehouse::new(name.clone(), config);
        self.warehouses.push(wh);
        self.by_name.insert(name.clone(), id);
        self.event_records.push(WarehouseEventRecord {
            warehouse: name,
            at: 0,
            kind: WarehouseEventKind::Created,
            source: ActionSource::External,
            size: self.warehouses[id.0].config().size,
            running_clusters: 0,
            auto_suspend_ms: self.warehouses[id.0].config().auto_suspend_ms,
            min_clusters: self.warehouses[id.0].config().min_clusters,
            max_clusters: self.warehouses[id.0].config().max_clusters,
            scaling_policy: self.warehouses[id.0].config().scaling_policy,
        });
        id
    }

    /// Looks up a warehouse id by name.
    pub fn warehouse_id(&self, name: &str) -> Option<WarehouseId> {
        self.by_name.get(name).copied()
    }

    /// All warehouse ids in creation order.
    pub fn warehouse_ids(&self) -> impl Iterator<Item = WarehouseId> {
        (0..self.warehouses.len()).map(WarehouseId)
    }

    /// Borrow a warehouse.
    pub fn warehouse(&self, id: WarehouseId) -> &Warehouse {
        &self.warehouses[id.0]
    }

    /// The billing ledger (usage + overhead).
    pub fn ledger(&self) -> &BillingLedger {
        &self.ledger
    }

    /// Completed-query telemetry, in completion order.
    pub fn query_records(&self) -> &[QueryRecord] {
        &self.query_records
    }

    /// Warehouse lifecycle events, in order.
    pub fn event_records(&self) -> &[WarehouseEventRecord] {
        &self.event_records
    }

    /// Pre-sizes the query-record log for `additional` more completions, so
    /// bulk trace submission amortizes the log's growth up front instead of
    /// reallocating on the event hot path.
    pub fn reserve_query_records(&mut self, additional: usize) {
        self.query_records.reserve(additional);
    }

    /// Records metadata/actuation overhead credits (charged by the
    /// telemetry fetcher and actuator in the keebo crate).
    pub fn charge_overhead(&mut self, at: SimTime, credits: f64) {
        self.ledger.record_overhead(at, credits);
    }

    /// Total credits a warehouse has accrued up to `now`: closed sessions
    /// from the ledger plus open sessions pro-rated. This is what a
    /// real-time spend dashboard (or a reward computation) sees.
    pub fn accrued_credits(&self, id: WarehouseId, now: SimTime) -> f64 {
        let wh = &self.warehouses[id.0];
        self.ledger
            .warehouse_ref(wh.name())
            .map_or(0.0, |h| h.total())
            + wh.open_session_credits(now)
    }

    /// `SHOW WAREHOUSES`-style description, used by monitoring for
    /// external-change detection.
    pub fn describe(&self, id: WarehouseId) -> WarehouseDescription {
        let wh = &self.warehouses[id.0];
        WarehouseDescription {
            name: wh.name().clone(),
            config: wh.config().clone(),
            is_suspended: matches!(wh.state(), crate::warehouse::WarehouseState::Suspended),
            running_clusters: wh.running_clusters(),
            queued_queries: wh.queued_queries(),
            running_queries: wh.running_queries(),
        }
    }

    /// Applies an `ALTER WAREHOUSE` command at `now`, returning events the
    /// caller (the simulator) must enqueue.
    pub(crate) fn apply_command(
        &mut self,
        id: WarehouseId,
        now: SimTime,
        cmd: WarehouseCommand,
        source: ActionSource,
        schedule: &mut Vec<(SimTime, WhEvent)>,
    ) -> Result<(), AlterError> {
        let mut ctx = WhContext {
            now,
            ledger: &mut self.ledger,
            query_records: &mut self.query_records,
            event_records: &mut self.event_records,
            schedule,
        };
        self.warehouses[id.0].apply_command(&mut ctx, cmd, source)
    }

    /// Runs `f` against one warehouse with a full effect context.
    pub(crate) fn with_warehouse<R>(
        &mut self,
        id: WarehouseId,
        now: SimTime,
        schedule: &mut Vec<(SimTime, WhEvent)>,
        f: impl FnOnce(&mut Warehouse, &mut WhContext<'_>) -> R,
    ) -> R {
        let mut ctx = WhContext {
            now,
            ledger: &mut self.ledger,
            query_records: &mut self.query_records,
            event_records: &mut self.event_records,
            schedule,
        };
        f(&mut self.warehouses[id.0], &mut ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::WarehouseSize;

    #[test]
    fn create_and_lookup() {
        let mut acc = Account::new();
        let id = acc.create_warehouse("BI_WH", WarehouseConfig::new(WarehouseSize::Small));
        assert_eq!(acc.warehouse_id("BI_WH"), Some(id));
        assert_eq!(acc.warehouse_id("NOPE"), None);
        assert_eq!(acc.warehouse(id).name(), "BI_WH");
    }

    #[test]
    fn with_warehouses_builds_in_order() {
        let (acc, ids) = Account::with_warehouses([
            ("WH_A", WarehouseConfig::new(WarehouseSize::Small)),
            ("WH_B", WarehouseConfig::new(WarehouseSize::Large)),
        ]);
        assert_eq!(ids.len(), 2);
        assert_eq!(acc.warehouse_id("WH_A"), Some(ids[0]));
        assert_eq!(acc.warehouse_id("WH_B"), Some(ids[1]));
        assert_eq!(acc.warehouse(ids[1]).name(), "WH_B");
    }

    #[test]
    fn creation_emits_audit_event() {
        let mut acc = Account::new();
        acc.create_warehouse("WH", WarehouseConfig::new(WarehouseSize::Large));
        assert_eq!(acc.event_records().len(), 1);
        assert_eq!(acc.event_records()[0].kind, WarehouseEventKind::Created);
        assert_eq!(acc.event_records()[0].size, WarehouseSize::Large);
    }

    #[test]
    fn describe_reflects_initial_state() {
        let mut acc = Account::new();
        let id = acc.create_warehouse("WH", WarehouseConfig::new(WarehouseSize::Medium));
        let d = acc.describe(id);
        assert!(d.is_suspended);
        assert_eq!(d.running_clusters, 0);
        assert_eq!(d.config.size, WarehouseSize::Medium);
    }

    #[test]
    fn overhead_flows_to_ledger() {
        let mut acc = Account::new();
        acc.charge_overhead(0, 0.25);
        assert_eq!(acc.ledger().overhead().total(), 0.25);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_names_panic() {
        let mut acc = Account::new();
        acc.create_warehouse("WH", WarehouseConfig::new(WarehouseSize::XSmall));
        acc.create_warehouse("WH", WarehouseConfig::new(WarehouseSize::XSmall));
    }
}
