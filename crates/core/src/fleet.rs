//! Fleet-scale parallel control plane.
//!
//! The paper's deployment manages *fleets*: many customer accounts, each
//! with many warehouses, all optimized by independent control loops ("Keebo
//! currently manages and optimizes millions of queries" across customers).
//! One `(Simulator, Orchestrator)` pair models one tenant; tenants never
//! share warehouses, telemetry, or models, so the fleet is embarrassingly
//! parallel across tenants.
//!
//! [`FleetController`] shards tenants into independent simulator/optimizer
//! pairs and drives the shards concurrently through a caller-owned
//! [`WorkerPool`] (see [`crate::pool`]), whose scoped jobs borrow the tenant
//! specs in place. Determinism is preserved by construction:
//!
//! * every random stream is derived from the fleet seed and a *name* via
//!   [`derive_stream_seed`] — the tenant name for the orchestrator and
//!   fault injector, the warehouse name (within the tenant stream) for each
//!   optimizer — never from creation order or thread identity;
//! * [`WorkerPool::map`] returns the shard results in spec order, and
//!   aggregation folds them in that order;
//! * query traces live in shared immutable [`std::sync::Arc`] buffers
//!   replayed through the simulator's trace arena
//!   ([`Simulator::submit_trace_shared`]), so shard construction never
//!   deep-clones a workload and buffer reuse cannot leak state between
//!   shards;
//!
//! so a fleet run produces bit-identical [`FleetReport`]s whether it runs
//! on 1 thread or 16, on a fresh pool or a reused one, and each warehouse
//! behaves exactly as it would if it were the only thing the controller
//! managed.

use crate::dashboard::OpsKpis;
use crate::orchestrator::{derive_stream_seed, KwoSetup, Orchestrator};
use crate::pool::WorkerPool;
use crate::pricing::{Invoice, ValueBasedPricing};
use cdw_sim::mix::Fnv1a;
use cdw_sim::{Account, FaultPlan, QuerySpec, SimTime, Simulator, WarehouseConfig};
use costmodel::SavingsReport;
use std::sync::Arc;
use std::time::Duration;

/// One warehouse a tenant brings to the fleet: its name, starting
/// configuration, optimizer setup, and query trace.
#[derive(Debug, Clone)]
pub struct WarehouseSpec {
    pub name: String,
    pub config: WarehouseConfig,
    pub setup: KwoSetup,
    /// The workload replayed on this warehouse (arrival-ordered or not;
    /// the simulator orders events itself). Shared and immutable: building
    /// a shard hands the same buffer to the simulator's trace arena
    /// instead of cloning every [`QuerySpec`].
    pub queries: Arc<[QuerySpec]>,
}

/// One tenant: an isolated account whose warehouses are optimized by one
/// shard-local orchestrator.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    pub warehouses: Vec<WarehouseSpec>,
    /// Faults injected into this tenant's control/telemetry plane.
    pub fault_plan: FaultPlan,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            warehouses: Vec::new(),
            fault_plan: FaultPlan::none(),
        }
    }

    pub fn add_warehouse(mut self, spec: WarehouseSpec) -> Self {
        self.warehouses.push(spec);
        self
    }
}

/// Per-warehouse outcome inside a tenant report.
#[derive(Debug, Clone)]
pub struct WarehouseOutcome {
    pub warehouse: String,
    pub savings: SavingsReport,
    pub ops: OpsKpis,
    pub invoice: Invoice,
}

/// One tenant's rollup: per-warehouse outcomes plus tenant totals.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub tenant: String,
    pub warehouses: Vec<WarehouseOutcome>,
    /// Sum of per-warehouse without-Keebo estimates.
    pub estimated_without_keebo: f64,
    /// Sum of per-warehouse with-Keebo actuals.
    pub actual_with_keebo: f64,
    /// Sum of per-warehouse estimated savings (may be negative).
    pub estimated_savings: f64,
    /// Sum of per-warehouse invoices (each clamped at zero individually:
    /// a warehouse that regressed never discounts another's charge).
    pub invoice: Invoice,
    pub ops: OpsKpis,
}

/// Fleet-wide rollup across every tenant.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Tenant reports in spec order (deterministic across thread counts).
    pub tenants: Vec<TenantReport>,
    pub warehouses: usize,
    pub estimated_without_keebo: f64,
    pub actual_with_keebo: f64,
    pub estimated_savings: f64,
    pub invoice: Invoice,
    pub ops: OpsKpis,
}

/// Incremental order-sensitive FNV-1a accumulator for [`FleetReport`]
/// digests (and the gateway's decision/response fingerprints). Kept
/// crate-private: the digest is a determinism fingerprint, not a stable
/// serialization format.
pub(crate) struct Fnv(Fnv1a);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(Fnv1a::default())
    }

    pub(crate) fn eat(&mut self, bits: u64) {
        self.0.write(&bits.to_le_bytes());
    }

    fn eat_f(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` hash apart.
    pub(crate) fn eat_str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        self.0.write(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn eat_invoice(&mut self, inv: &Invoice) {
        self.eat_f(inv.billable_savings_credits);
        self.eat_f(inv.charge_credits);
        self.eat_f(inv.customer_net_credits);
    }

    fn eat_savings(&mut self, s: &SavingsReport) {
        self.eat(s.window_start);
        self.eat(s.window_end);
        self.eat_f(s.estimated_without_keebo);
        self.eat_f(s.actual_with_keebo);
        self.eat_f(s.estimated_savings);
        self.eat_f(s.savings_fraction);
        self.eat_f(s.replay.estimated_credits);
        self.eat(s.replay.active_ms);
        self.eat(s.replay.sessions as u64);
        self.eat(s.replay.replayed_queries as u64);
        // BTreeMap-backed: iteration order is hour order, deterministic.
        self.eat(s.replay.hourly.iter().count() as u64);
        for (hour, credits) in s.replay.hourly.iter() {
            self.eat(hour);
            self.eat_f(credits);
        }
    }

    fn eat_ops(&mut self, ops: &OpsKpis) {
        self.eat(ops.health.digest_code());
        self.eat(ops.healthy_ticks);
        self.eat(ops.degraded_ticks);
        self.eat(ops.frozen_ticks);
        self.eat(ops.actions_applied as u64);
        self.eat(ops.actions_failed as u64);
        self.eat(ops.rollbacks as u64);
        self.eat(ops.reconciliations as u64);
        self.eat(ops.transient_retries);
        self.eat(ops.fetch_outages);
        self.eat(ops.fetch_partials);
        self.eat(ops.telemetry_staleness_ms);
    }
}

impl FleetReport {
    /// Order-sensitive FNV-1a digest over *every* field of the report:
    /// names, each warehouse's full savings report (replay buckets
    /// included), invoices, every ops KPI (health state and tick counters
    /// included), and the tenant/fleet rollups. Two runs of the same fleet
    /// are *bit-identical* iff their digests match — the determinism
    /// contract the bench and tests check across thread counts.
    ///
    /// Any field added to [`OpsKpis`], [`SavingsReport`], or [`Invoice`]
    /// must be hashed here; the table-driven digest-sensitivity test
    /// enforces the current coverage so omissions fail loudly instead of
    /// silently weakening the gate (the pre-fix digest skipped
    /// `fetch_partials`, staleness, and the health state entirely).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for t in &self.tenants {
            h.eat_str(&t.tenant);
            h.eat(t.warehouses.len() as u64);
            for w in &t.warehouses {
                h.eat_str(&w.warehouse);
                h.eat_savings(&w.savings);
                h.eat_invoice(&w.invoice);
                h.eat_ops(&w.ops);
            }
            h.eat_f(t.estimated_without_keebo);
            h.eat_f(t.actual_with_keebo);
            h.eat_f(t.estimated_savings);
            h.eat_invoice(&t.invoice);
            h.eat_ops(&t.ops);
        }
        h.eat(self.warehouses as u64);
        h.eat_f(self.estimated_without_keebo);
        h.eat_f(self.actual_with_keebo);
        h.eat_f(self.estimated_savings);
        h.eat_invoice(&self.invoice);
        h.eat_ops(&self.ops);
        h.finish()
    }
}

fn zero_invoice() -> Invoice {
    Invoice {
        billable_savings_credits: 0.0,
        charge_credits: 0.0,
        customer_net_credits: 0.0,
    }
}

fn add_invoice(acc: &mut Invoice, inv: &Invoice) {
    acc.billable_savings_credits += inv.billable_savings_credits;
    acc.charge_credits += inv.charge_credits;
    acc.customer_net_credits += inv.customer_net_credits;
}

/// Wall-clock accounting for one fleet run, split at the bug line the
/// original bench got wrong: shard *construction* (trace submission,
/// orchestrator wiring) used to be timed inside the same window as shard
/// *driving* (simulation + optimization), inflating `wall_secs` and
/// flattening the apparent thread speedup. Both are cumulative worker
/// seconds across all shards, not elapsed wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetRunStats {
    /// Seconds spent building shards (account setup + trace submission).
    pub build_secs: f64,
    /// Seconds spent driving shards (observe/onboard/optimize + rollup).
    pub drive_secs: f64,
}

/// Drives a fleet of tenants, each on its own shard, in parallel.
#[derive(Debug, Clone)]
pub struct FleetController {
    seed: u64,
    tenants: Vec<TenantSpec>,
}

/// One shard: a tenant's isolated simulator plus its orchestrator. Shared
/// with the serving gateway (`crate::gateway`), which keeps shards alive
/// across control ticks instead of driving them start-to-finish.
pub(crate) struct FleetShard {
    pub(crate) sim: Simulator,
    pub(crate) kwo: Orchestrator,
}

/// Builds one tenant's shard: an account with the tenant's warehouses, a
/// fault-injecting simulator, the submitted traces, and a shard-local
/// orchestrator managing every warehouse. All seeds derive from names;
/// traces go through the simulator's shared-trace arena, so no
/// [`QuerySpec`] is ever cloned here. Used by both the batch fleet run and
/// the serving gateway so the two paths cannot drift apart.
pub(crate) fn build_shard(seed: u64, tenant: &TenantSpec) -> FleetShard {
    let tenant_seed = derive_stream_seed(seed, &tenant.name);
    let (account, ids) = Account::with_warehouses(
        tenant
            .warehouses
            .iter()
            .map(|w| (w.name.as_str(), w.config.clone())),
    );
    let fault_seed = derive_stream_seed(tenant_seed, "faults");
    let mut sim = Simulator::with_faults(account, tenant.fault_plan.clone(), fault_seed);
    for (w, id) in tenant.warehouses.iter().zip(ids) {
        sim.submit_trace_shared(id, Arc::clone(&w.queries));
    }
    let mut kwo = Orchestrator::new(tenant_seed);
    for w in &tenant.warehouses {
        kwo.manage(&sim, &w.name, w.setup.clone());
    }
    FleetShard { sim, kwo }
}

/// Rolls one driven shard up into its [`TenantReport`]: per-warehouse
/// savings over `[window_start, window_end)`, invoices at the default
/// value-based pricing (clamped per warehouse), and ops KPIs, folded in
/// managed-warehouse order (the tenant spec's).
pub(crate) fn tenant_report(
    shard: &FleetShard,
    tenant_name: &str,
    window_start: SimTime,
    window_end: SimTime,
) -> TenantReport {
    let now = shard.sim.now();
    let warehouses: Vec<WarehouseOutcome> = shard
        .kwo
        .optimizers()
        .iter()
        .map(|optimizer| {
            let savings = optimizer.savings_report(&shard.sim, window_start, window_end);
            WarehouseOutcome {
                warehouse: optimizer.name().to_string(),
                invoice: ValueBasedPricing::default().invoice(&savings),
                ops: OpsKpis::collect(optimizer, now),
                savings,
            }
        })
        .collect();
    let mut invoice = zero_invoice();
    for w in &warehouses {
        add_invoice(&mut invoice, &w.invoice);
    }
    TenantReport {
        tenant: tenant_name.to_string(),
        estimated_without_keebo: warehouses
            .iter()
            .map(|w| w.savings.estimated_without_keebo)
            .sum(),
        actual_with_keebo: warehouses.iter().map(|w| w.savings.actual_with_keebo).sum(),
        estimated_savings: warehouses.iter().map(|w| w.savings.estimated_savings).sum(),
        ops: OpsKpis::rollup(warehouses.iter().map(|w| &w.ops)),
        invoice,
        warehouses,
    }
}

/// Folds spec-order tenant reports into the fleet-wide rollup. Shared by
/// the batch fleet run and the gateway's end-of-run report.
pub(crate) fn fleet_rollup(tenants: Vec<TenantReport>) -> FleetReport {
    let mut invoice = zero_invoice();
    for t in &tenants {
        add_invoice(&mut invoice, &t.invoice);
    }
    FleetReport {
        warehouses: tenants.iter().map(|t| t.warehouses.len()).sum(),
        estimated_without_keebo: tenants.iter().map(|t| t.estimated_without_keebo).sum(),
        actual_with_keebo: tenants.iter().map(|t| t.actual_with_keebo).sum(),
        estimated_savings: tenants.iter().map(|t| t.estimated_savings).sum(),
        ops: OpsKpis::rollup(tenants.iter().map(|t| &t.ops)),
        invoice,
        tenants,
    }
}

impl FleetController {
    /// A fleet with the given root seed and default value-based pricing.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            tenants: Vec::new(),
        }
    }

    pub fn add_tenant(&mut self, tenant: TenantSpec) -> &mut Self {
        self.tenants.push(tenant);
        self
    }

    /// Runs the whole fleet through a caller-owned [`WorkerPool`], on at
    /// most `parallelism` threads: every tenant observes until
    /// `observe_until`, onboards, then optimizes until `until`. Jobs claim
    /// shards off a shared cursor; the report is bit-identical for any pool
    /// size and parallelism. Also returns per-run wall-clock accounting:
    /// cumulative shard *build* seconds and shard *drive* seconds, kept
    /// apart so a throughput figure does not bill trace construction to the
    /// simulator.
    pub fn run_on_timed(
        &self,
        pool: &WorkerPool,
        observe_until: SimTime,
        until: SimTime,
        parallelism: usize,
    ) -> (FleetReport, FleetRunStats) {
        assert!(!self.tenants.is_empty(), "fleet has no tenants");
        assert!(parallelism > 0, "need at least one worker thread");
        let shards = self.tenants.len();
        keebo_obs::global()
            .gauge("keebo.fleet.tenants")
            .set(shards as f64);
        keebo_obs::global()
            .gauge("keebo.fleet.workers")
            .set(parallelism.min(pool.size()).min(shards) as f64);

        let results = pool.map(self.tenants.iter().collect(), parallelism, |_, tenant| {
            run_shard(self.seed, tenant, observe_until, until)
        });
        let mut stats = FleetRunStats::default();
        let mut tenants = Vec::with_capacity(shards);
        for (report, build, drive) in results {
            stats.build_secs += build.as_secs_f64();
            stats.drive_secs += drive.as_secs_f64();
            tenants.push(report);
        }
        (fleet_rollup(tenants), stats)
    }
}

/// Drives one shard through the full lifecycle and rolls up its report,
/// timing shard *build* and shard *drive* separately.
fn run_shard(
    seed: u64,
    tenant: &TenantSpec,
    observe_until: SimTime,
    until: SimTime,
) -> (TenantReport, Duration, Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time only feeds the build/drive histograms, never a decision"
    )]
    let t0 = std::time::Instant::now();
    let mut shard = build_shard(seed, tenant);
    let build = t0.elapsed();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time only feeds the build/drive histograms, never a decision"
    )]
    let t1 = std::time::Instant::now();
    shard.kwo.observe_until(&mut shard.sim, observe_until);
    shard.kwo.onboard(&mut shard.sim);
    shard.kwo.run_until(&mut shard.sim, until);
    let report = tenant_report(&shard, &tenant.name, observe_until, until);
    let drive = t1.elapsed();

    let buckets = [1.0, 10.0, 100.0, 500.0, 2_000.0, 10_000.0, 60_000.0];
    keebo_obs::global()
        .histogram("keebo.fleet.shard_build_ms", &buckets)
        .observe(build.as_secs_f64() * 1e3);
    keebo_obs::global()
        .histogram("keebo.fleet.shard_drive_ms", &buckets)
        .observe(drive.as_secs_f64() * 1e3);
    (report, build, drive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drill::fast_setup;
    use crate::health::HealthState;
    use cdw_sim::{WarehouseSize, DAY_MS, HOUR_MS};
    use workload::{generate_trace, BiWorkload, EtlWorkload};

    /// The report of a run on `pool` (what the deleted `run_on` returned).
    fn run_on(
        fleet: &FleetController,
        pool: &WorkerPool,
        observe_until: SimTime,
        until: SimTime,
        parallelism: usize,
    ) -> FleetReport {
        fleet
            .run_on_timed(pool, observe_until, until, parallelism)
            .0
    }

    /// A run on a fresh pool of `threads` workers.
    fn run(
        fleet: &FleetController,
        observe_until: SimTime,
        until: SimTime,
        threads: usize,
    ) -> FleetReport {
        run_on(
            fleet,
            &WorkerPool::new(threads),
            observe_until,
            until,
            threads,
        )
    }

    fn warehouse_spec(name: &str, archetype: usize, seed: u64, days: u64) -> WarehouseSpec {
        let queries = match archetype % 2 {
            0 => generate_trace(
                &EtlWorkload {
                    pipelines: 2,
                    queries_per_run: 2,
                    period_ms: 2 * HOUR_MS,
                    ..EtlWorkload::default()
                },
                0,
                days * DAY_MS,
                seed,
            ),
            _ => generate_trace(
                &BiWorkload {
                    dashboards: 2,
                    queries_per_refresh: 2,
                    peak_refreshes_per_hour: 4.0,
                    ..BiWorkload::default()
                },
                0,
                days * DAY_MS,
                seed,
            ),
        };
        WarehouseSpec {
            name: name.to_string(),
            config: WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(1800),
            setup: fast_setup(),
            queries: queries.into(),
        }
    }

    fn small_fleet(seed: u64, days: u64) -> FleetController {
        let mut fleet = FleetController::new(seed);
        for t in 0..2 {
            let tenant_name = format!("tenant-{t}");
            let mut tenant = TenantSpec::new(&tenant_name);
            for w in 0..2 {
                let name = format!("T{t}_WH{w}");
                let wh_seed = derive_stream_seed(seed, &name);
                tenant = tenant.add_warehouse(warehouse_spec(&name, t * 2 + w, wh_seed, days));
            }
            fleet.add_tenant(tenant);
        }
        fleet
    }

    #[test]
    fn fleet_reports_every_warehouse() {
        let fleet = small_fleet(11, 2);
        let report = run(&fleet, DAY_MS, 2 * DAY_MS, 2);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.warehouses, 4);
        assert!(report.estimated_without_keebo > 0.0);
        assert!(report.actual_with_keebo > 0.0);
        // Invoice identity: charge + customer net == billable savings.
        let inv = &report.invoice;
        assert!(
            (inv.charge_credits + inv.customer_net_credits - inv.billable_savings_credits).abs()
                < 1e-9
        );
    }

    #[test]
    fn every_record_of_a_warehouse_shares_its_one_name() {
        use cdw_sim::WarehouseName;
        let fleet = small_fleet(11, 2);
        let mut shard = build_shard(fleet.seed, &fleet.tenants[0]);
        shard.kwo.observe_until(&mut shard.sim, DAY_MS);
        shard.kwo.onboard(&mut shard.sim);
        shard.kwo.run_until(&mut shard.sim, 2 * DAY_MS);
        let account = shard.sim.account();
        for o in shard.kwo.optimizers() {
            let wh = account.warehouse_id(o.name()).unwrap();
            let name = account.warehouse(wh).name();
            let shared = |n: &WarehouseName| WarehouseName::ptr_eq(n, name);
            assert_eq!(o.name().as_ptr(), name.as_ptr(), "the optimizer's own name");
            let queries: Vec<_> = account
                .query_records()
                .iter()
                .filter(|r| r.warehouse == *name)
                .collect();
            let events: Vec<_> = account
                .event_records()
                .iter()
                .filter(|e| e.warehouse == *name)
                .collect();
            let stored = o.store().queries(name);
            assert!(!queries.is_empty() && !events.is_empty());
            assert!(!stored.is_empty());
            assert!(
                queries.iter().all(|r| shared(&r.warehouse)),
                "account queries"
            );
            assert!(
                events.iter().all(|e| shared(&e.warehouse)),
                "account events"
            );
            assert!(stored.iter().all(|r| shared(&r.warehouse)), "store queries");
            assert!(
                o.store()
                    .events_in(name, 0, SimTime::MAX)
                    .iter()
                    .all(|e| shared(&e.warehouse)),
                "store events"
            );
        }
    }

    #[test]
    fn fleet_is_bit_identical_across_thread_counts() {
        let fleet = small_fleet(7, 2);
        let one = run(&fleet, DAY_MS, 2 * DAY_MS, 1);
        let two = run(&fleet, DAY_MS, 2 * DAY_MS, 2);
        let four = run(&fleet, DAY_MS, 2 * DAY_MS, 4);
        assert_eq!(one.digest(), two.digest());
        assert_eq!(one.digest(), four.digest());
        // Digest covers the rollups; spot-check raw bits too.
        assert_eq!(
            one.estimated_savings.to_bits(),
            four.estimated_savings.to_bits()
        );
        assert_eq!(one.ops.actions_applied, four.ops.actions_applied);

        // All four archetypes (`small_fleet` is ETL and BI only) as 4
        // tenants x 2 Large warehouses, at widths 1 and 2 of one reused pool.
        let fleet_seed = 1009;
        let mut mixed = FleetController::new(fleet_seed);
        for tenant in workload::fleet_mix(4, 2, true).chunks(2) {
            let mut spec = TenantSpec::new(&tenant[0].tenant);
            for m in tenant {
                let seed = derive_stream_seed(fleet_seed, &m.warehouse);
                spec = spec.add_warehouse(WarehouseSpec {
                    name: m.warehouse.clone(),
                    config: WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
                    setup: fast_setup(),
                    queries: generate_trace(m.generator.as_ref(), 0, 2 * DAY_MS, seed).into(),
                });
            }
            mixed.add_tenant(spec);
        }
        let pool = WorkerPool::new(2);
        let [one, two] = [1, 2].map(|width| run_on(&mixed, &pool, DAY_MS, 2 * DAY_MS, width));
        assert_eq!(one.warehouses, 8);
        assert_eq!(one.digest(), two.digest());
    }

    #[test]
    fn observability_is_zero_perturbation() {
        // The acceptance bar for the whole observability layer: metrics on
        // vs off must yield bit-identical fleet results. Metrics are
        // fire-and-forget atomics, so the digest cannot move. (The decision
        // trace is always on and write-only; every digest includes it.)
        let fleet = small_fleet(13, 2);
        let metrics_on = run(&fleet, DAY_MS, 2 * DAY_MS, 2).digest();
        keebo_obs::set_enabled(false);
        let metrics_off = run(&fleet, DAY_MS, 2 * DAY_MS, 2).digest();
        keebo_obs::set_enabled(true);
        assert_eq!(metrics_on, metrics_off, "metrics on/off must not perturb");
    }

    #[test]
    fn tenant_results_do_not_depend_on_fleet_composition() {
        // A tenant's report is identical whether it is the only tenant or
        // one of several: shard streams derive from names, not indices.
        let days = 2;
        let seed = 5;
        let spec = |t: usize| {
            let tenant_name = format!("tenant-{t}");
            let mut tenant = TenantSpec::new(&tenant_name);
            for w in 0..2 {
                let name = format!("T{t}_WH{w}");
                let wh_seed = derive_stream_seed(seed, &name);
                tenant = tenant.add_warehouse(warehouse_spec(&name, w, wh_seed, days));
            }
            tenant
        };

        let mut solo = FleetController::new(seed);
        solo.add_tenant(spec(1));
        let solo_report = run(&solo, DAY_MS, days * DAY_MS, 1);

        let mut both = FleetController::new(seed);
        both.add_tenant(spec(0));
        both.add_tenant(spec(1));
        let both_report = run(&both, DAY_MS, days * DAY_MS, 2);

        let solo_t = &solo_report.tenants[0];
        let both_t = &both_report.tenants[1];
        assert_eq!(solo_t.tenant, both_t.tenant);
        assert_eq!(
            solo_t.estimated_savings.to_bits(),
            both_t.estimated_savings.to_bits()
        );
        assert_eq!(
            solo_t.warehouses[0].savings.actual_with_keebo.to_bits(),
            both_t.warehouses[0].savings.actual_with_keebo.to_bits()
        );
    }

    #[test]
    fn reused_pool_matches_fresh_pools_bit_for_bit() {
        // The pool-reuse contract: consecutive runs on one pool produce the
        // same digest as runs on fresh pools.
        let fleet = small_fleet(31, 2);
        let fresh = run(&fleet, DAY_MS, 2 * DAY_MS, 2).digest();
        let pool = WorkerPool::new(3);
        let first = run_on(&fleet, &pool, DAY_MS, 2 * DAY_MS, 2).digest();
        let second = run_on(&fleet, &pool, DAY_MS, 2 * DAY_MS, 3).digest();
        assert_eq!(first, fresh, "reused pool diverged from fresh pool");
        assert_eq!(second, fresh, "pool reuse perturbed the digest");
    }

    #[test]
    fn pool_wider_and_narrower_than_fleet_both_work() {
        let fleet = small_fleet(33, 2);
        // threads > shards: the extra capacity must idle harmlessly.
        let wide = WorkerPool::new(8);
        let wide_digest = run_on(&fleet, &wide, DAY_MS, 2 * DAY_MS, 8).digest();
        // threads = 1: strictly sequential execution.
        let narrow = WorkerPool::new(1);
        let narrow_digest = run_on(&fleet, &narrow, DAY_MS, 2 * DAY_MS, 1).digest();
        assert_eq!(wide_digest, narrow_digest);
        assert_eq!(wide_digest, run(&fleet, DAY_MS, 2 * DAY_MS, 16).digest());
    }

    #[test]
    fn panicking_shard_surfaces_and_pool_poisons_nothing() {
        // A tenant with duplicate warehouse names panics during shard
        // construction (Account::create_warehouse asserts uniqueness).
        let mut bad = small_fleet(35, 1);
        let mut dupes = TenantSpec::new("dupes");
        for _ in 0..2 {
            let seed = derive_stream_seed(35, "DUP");
            dupes = dupes.add_warehouse(warehouse_spec("DUP", 0, seed, 1));
        }
        bad.add_tenant(dupes);

        let pool = WorkerPool::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_on(&bad, &pool, DAY_MS, DAY_MS, 2)
        }));
        assert!(res.is_err(), "duplicate warehouse shard must panic the run");

        // The pool survives and the next (healthy) fleet run on it matches
        // a fresh-pool digest exactly.
        let good = small_fleet(35, 1);
        assert_eq!(
            run_on(&good, &pool, DAY_MS, DAY_MS, 2).digest(),
            run(&good, DAY_MS, DAY_MS, 2).digest(),
            "pool poisoned by a panicking shard"
        );
    }

    #[test]
    fn run_stats_separate_build_from_drive() {
        let fleet = small_fleet(37, 2);
        let pool = WorkerPool::new(2);
        let (report, stats) = fleet.run_on_timed(&pool, DAY_MS, 2 * DAY_MS, 2);
        assert_eq!(report.warehouses, 4);
        // Both phases ran; driving two simulated days dominates building.
        assert!(stats.build_secs > 0.0, "build time not attributed");
        assert!(stats.drive_secs > 0.0, "drive time not attributed");
        assert!(
            stats.drive_secs > stats.build_secs,
            "drive ({}) should dominate build ({}) on a multi-day run",
            stats.drive_secs,
            stats.build_secs
        );
    }

    #[test]
    fn digest_is_sensitive_to_every_hashed_field() {
        // Table-driven guard for the digest contract: perturbing any field
        // the digest claims to cover must move it. This is the regression
        // net for the bug where OpsKpis health/staleness/fetch_partials
        // fields silently fell out of the hash.
        let fleet = small_fleet(41, 2);
        let base = run(&fleet, DAY_MS, 2 * DAY_MS, 2);
        let base_digest = base.digest();

        type Mutator = (&'static str, fn(&mut FleetReport));
        let mutations: &[Mutator] = &[
            ("tenant name", |r| r.tenants[0].tenant.push('x')),
            ("warehouse name", |r| {
                r.tenants[0].warehouses[0].warehouse.push('x')
            }),
            ("savings.window_start", |r| {
                r.tenants[0].warehouses[0].savings.window_start += 1
            }),
            ("savings.window_end", |r| {
                r.tenants[0].warehouses[0].savings.window_end += 1
            }),
            ("savings.estimated_without_keebo", |r| {
                r.tenants[0].warehouses[0].savings.estimated_without_keebo += 0.5
            }),
            ("savings.actual_with_keebo", |r| {
                r.tenants[0].warehouses[0].savings.actual_with_keebo += 0.5
            }),
            ("savings.estimated_savings", |r| {
                r.tenants[0].warehouses[0].savings.estimated_savings += 0.5
            }),
            ("savings.savings_fraction", |r| {
                r.tenants[0].warehouses[0].savings.savings_fraction += 0.01
            }),
            ("replay.estimated_credits", |r| {
                r.tenants[0].warehouses[0].savings.replay.estimated_credits += 0.5
            }),
            ("replay.hourly", |r| {
                r.tenants[0].warehouses[0]
                    .savings
                    .replay
                    .hourly
                    .add(0, 0.25)
            }),
            ("replay.active_ms", |r| {
                r.tenants[0].warehouses[0].savings.replay.active_ms += 1
            }),
            ("replay.sessions", |r| {
                r.tenants[0].warehouses[0].savings.replay.sessions += 1
            }),
            ("replay.replayed_queries", |r| {
                r.tenants[0].warehouses[0].savings.replay.replayed_queries += 1
            }),
            ("invoice.billable_savings_credits", |r| {
                r.tenants[0].warehouses[0].invoice.billable_savings_credits += 0.5
            }),
            ("invoice.charge_credits", |r| {
                r.tenants[0].warehouses[0].invoice.charge_credits += 0.5
            }),
            ("invoice.customer_net_credits", |r| {
                r.tenants[0].warehouses[0].invoice.customer_net_credits += 0.5
            }),
            ("ops.health", |r| {
                r.tenants[0].warehouses[0].ops.health = HealthState::Frozen
            }),
            ("ops.healthy_ticks", |r| {
                r.tenants[0].warehouses[0].ops.healthy_ticks += 1
            }),
            ("ops.degraded_ticks", |r| {
                r.tenants[0].warehouses[0].ops.degraded_ticks += 1
            }),
            ("ops.frozen_ticks", |r| {
                r.tenants[0].warehouses[0].ops.frozen_ticks += 1
            }),
            ("ops.actions_applied", |r| {
                r.tenants[0].warehouses[0].ops.actions_applied += 1
            }),
            ("ops.actions_failed", |r| {
                r.tenants[0].warehouses[0].ops.actions_failed += 1
            }),
            ("ops.rollbacks", |r| {
                r.tenants[0].warehouses[0].ops.rollbacks += 1
            }),
            ("ops.reconciliations", |r| {
                r.tenants[0].warehouses[0].ops.reconciliations += 1
            }),
            ("ops.transient_retries", |r| {
                r.tenants[0].warehouses[0].ops.transient_retries += 1
            }),
            ("ops.fetch_outages", |r| {
                r.tenants[0].warehouses[0].ops.fetch_outages += 1
            }),
            ("ops.fetch_partials", |r| {
                r.tenants[0].warehouses[0].ops.fetch_partials += 1
            }),
            ("ops.telemetry_staleness_ms", |r| {
                r.tenants[0].warehouses[0].ops.telemetry_staleness_ms += 1
            }),
            ("tenant rollup estimated_savings", |r| {
                r.tenants[0].estimated_savings += 0.5
            }),
            ("tenant rollup invoice", |r| {
                r.tenants[0].invoice.charge_credits += 0.5
            }),
            ("tenant rollup ops", |r| {
                r.tenants[0].ops.fetch_partials += 1
            }),
            ("fleet warehouse count", |r| r.warehouses += 1),
            ("fleet estimated_without_keebo", |r| {
                r.estimated_without_keebo += 0.5
            }),
            ("fleet actual_with_keebo", |r| r.actual_with_keebo += 0.5),
            ("fleet estimated_savings", |r| r.estimated_savings += 0.5),
            ("fleet invoice", |r| r.invoice.customer_net_credits += 0.5),
            ("fleet ops", |r| r.ops.telemetry_staleness_ms += 1),
        ];
        for (field, mutate) in mutations {
            let mut perturbed = base.clone();
            mutate(&mut perturbed);
            assert_ne!(
                perturbed.digest(),
                base_digest,
                "digest is blind to {field}"
            );
        }
    }

    #[test]
    fn rollup_health_is_worst_of_members() {
        let healthy = OpsKpis {
            health: HealthState::Healthy,
            healthy_ticks: 5,
            degraded_ticks: 0,
            frozen_ticks: 0,
            actions_applied: 3,
            actions_failed: 0,
            rollbacks: 0,
            reconciliations: 0,
            transient_retries: 0,
            fetch_outages: 0,
            fetch_partials: 0,
            telemetry_staleness_ms: 10,
        };
        let mut frozen = healthy.clone();
        frozen.health = HealthState::Frozen;
        frozen.telemetry_staleness_ms = 99;
        let rolled = OpsKpis::rollup([&healthy, &frozen]);
        assert_eq!(rolled.health, HealthState::Frozen);
        assert_eq!(rolled.healthy_ticks, 10);
        assert_eq!(rolled.actions_applied, 6);
        assert_eq!(rolled.telemetry_staleness_ms, 99);
    }
}
