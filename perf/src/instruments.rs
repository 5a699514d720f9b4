//! The two instruments that sit between the benchmark and the system.
//!
//! * The **shard driver** takes one tenant through the lifecycle the fleet
//!   controller runs — build, observe, onboard, optimise, report — from
//!   public pieces, either in one piece per phase or *stepped*: one span
//!   around the simulator advancing to just before each control tick and
//!   one around the tick itself. `Orchestrator::run_until` is
//!   compositional, so the stepped drive is bit-identical to the plain one;
//!   the self-test pins that.
//! * [`TimedStore`] decorates any [`StateStore`] handed to
//!   `Orchestrator::attach_store`: it counts operations, bytes and errors
//!   always, and records child spans and a sample of payloads when given a
//!   tracer. It forwards every call unchanged; the self-test pins that the
//!   bytes on disk are the same with and without it.

use crate::trace::{in_span, request_id, SharedTracer};
use cdw_sim::{Account, SimTime, Simulator};
use costmodel::SavingsReport;
use keebo::{derive_stream_seed, Orchestrator, StateStore, StoreContents, TenantSpec};
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

/// Span names, one per layer boundary the driver can see from outside.
pub mod span {
    /// One whole traced drive of a workload; every share is of this.
    pub const ROUND: &str = "round";
    pub const BUILD: &str = "fleet.build";
    pub const SIM: &str = "cdw-sim.run_until";
    pub const TICK: &str = "orchestrator.tick";
    pub const ONBOARD: &str = "orchestrator.onboard";
    pub const REPORT: &str = "orchestrator.report";
    pub const RESTORE: &str = "orchestrator.restore";
    pub const APPEND: &str = "store.append";
    pub const SNAPSHOT: &str = "store.write_snapshot";
    pub const LOAD: &str = "store.load";
}

/// One tenant's isolated simulator and orchestrator.
pub struct Shard {
    pub sim: Simulator,
    pub kwo: Orchestrator,
    pub warehouses: Vec<String>,
}

/// Builds a tenant's shard exactly as the fleet controller does (same seed
/// derivation, same call order), but with any store — the fleet API only
/// offers an in-memory one.
pub fn build_shard(seed: u64, tenant: &TenantSpec, store: Option<Box<dyn StateStore>>) -> Shard {
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
    if let Some(store) = store {
        kwo.attach_store(store, sim.now());
    }
    for w in &tenant.warehouses {
        kwo.manage(&sim, &w.name, w.setup.clone());
    }
    Shard {
        sim,
        kwo,
        warehouses: tenant.warehouses.iter().map(|w| w.name.clone()).collect(),
    }
}

/// Simulator events seen by a stepped drive, split by where they fell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTally {
    /// Processed inside `cdw-sim.run_until` spans.
    pub advance: u64,
    /// Due exactly on a tick boundary, so processed inside the tick span.
    pub boundary: u64,
    /// Control ticks stepped.
    pub ticks: u64,
}

/// Drives a shard through one phase (observation or optimisation — the
/// orchestrator advances the same way in both), optionally stepped.
pub struct ShardDriver {
    /// `None` drives each phase with a single `run_until`.
    pub tracer: Option<SharedTracer>,
    pub tenant: usize,
    /// The fleet-wide control cadence (every warehouse of a workload shares
    /// one `realtime_interval_ms`).
    pub tick_ms: SimTime,
    pub events: EventTally,
}

impl ShardDriver {
    pub fn plain() -> Self {
        Self {
            tracer: None,
            tenant: 0,
            tick_ms: 0,
            events: EventTally::default(),
        }
    }

    pub fn stepped(tracer: SharedTracer, tenant: usize, tick_ms: SimTime) -> Self {
        assert!(tick_ms > 0, "control cadence must be positive");
        Self {
            tracer: Some(tracer),
            tenant,
            tick_ms,
            events: EventTally::default(),
        }
    }

    /// Runs `f` in a span when tracing, bare otherwise.
    pub fn span<T>(&self, name: &'static str, tick: u64, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => in_span(t, name, request_id(self.tenant, tick), f),
            None => f(),
        }
    }

    /// `kwo.run_until(sim, until)`, in one call or tick by tick.
    pub fn advance(&mut self, shard: &mut Shard, until: SimTime) {
        if self.tracer.is_none() {
            shard.kwo.run_until(&mut shard.sim, until);
            return;
        }
        let tick = self.tick_ms;
        let mut t = (shard.sim.now() / tick + 1) * tick;
        while t <= until {
            let n = t / tick;
            let before = shard.sim.processed_events();
            self.span(span::SIM, n, || shard.sim.run_until(t - 1));
            let at_boundary = shard.sim.processed_events();
            self.span(span::TICK, n, || shard.kwo.run_until(&mut shard.sim, t));
            self.events.advance += at_boundary - before;
            self.events.boundary += shard.sim.processed_events() - at_boundary;
            self.events.ticks += 1;
            t += tick;
        }
        let before = shard.sim.processed_events();
        self.span(span::SIM, until / tick, || shard.sim.run_until(until));
        self.events.advance += shard.sim.processed_events() - before;
    }

    pub fn onboard(&self, shard: &mut Shard) {
        let tick = shard.sim.now() / self.tick_ms.max(1);
        self.span(span::ONBOARD, tick, || shard.kwo.onboard(&mut shard.sim));
    }

    /// Per-warehouse savings over `[start, end)`, in managed order.
    pub fn report(&self, shard: &Shard, start: SimTime, end: SimTime) -> Vec<SavingsReport> {
        let tick = end / self.tick_ms.max(1);
        self.span(span::REPORT, tick, || {
            shard
                .warehouses
                .iter()
                .map(|w| shard.kwo.savings_report(&shard.sim, w, start, end))
                .collect()
        })
    }
}

/// What a [`TimedStore`] saw, shared with the driver through a handle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreTally {
    pub appends: u64,
    pub append_errors: u64,
    /// Payload bytes handed to `append` (framing excluded).
    pub wal_payload_bytes: u64,
    pub snapshots: u64,
    pub snapshot_errors: u64,
    pub snapshot_bytes: u64,
    pub snapshot_bytes_max: u64,
    pub loads: u64,
    pub load_errors: u64,
    /// The first [`SAMPLE_RECORDS`] appended payloads, for the codec probes.
    pub sample_records: Vec<Vec<u8>>,
    /// The latest snapshot payload, for the codec probes.
    pub last_snapshot: Option<Vec<u8>>,
}

impl StoreTally {
    pub fn errors(&self) -> u64 {
        self.append_errors + self.snapshot_errors + self.load_errors
    }

    pub fn operations(&self) -> u64 {
        self.appends + self.snapshots + self.loads
    }

    pub fn absorb(&mut self, other: &StoreTally) {
        self.appends += other.appends;
        self.append_errors += other.append_errors;
        self.wal_payload_bytes += other.wal_payload_bytes;
        self.snapshots += other.snapshots;
        self.snapshot_errors += other.snapshot_errors;
        self.snapshot_bytes += other.snapshot_bytes;
        self.snapshot_bytes_max = self.snapshot_bytes_max.max(other.snapshot_bytes_max);
        self.loads += other.loads;
        self.load_errors += other.load_errors;
    }
}

pub const SAMPLE_RECORDS: usize = 256;

pub type SharedTally = Arc<Mutex<StoreTally>>;

/// Counting (and, with a tracer, span-recording) decorator over a store.
pub struct TimedStore<S: StateStore> {
    inner: S,
    tally: SharedTally,
    tracer: Option<SharedTracer>,
    /// Request id stamped on this store's spans (the tenant; the store does
    /// not know the tick).
    request: u64,
}

impl<S: StateStore> TimedStore<S> {
    /// Payload samples are kept only when tracing: an untraced run should
    /// not pay for the copies.
    pub fn new(inner: S, tally: SharedTally, tracer: Option<SharedTracer>, tenant: usize) -> Self {
        Self {
            inner,
            tally,
            tracer,
            request: request_id(tenant, 0),
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let inner = &mut self.inner;
        match &self.tracer {
            Some(t) => in_span(t, name, self.request, || f(inner)),
            None => f(inner),
        }
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, StoreTally> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<S: StateStore> StateStore for TimedStore<S> {
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let result = self.timed(span::APPEND, |s| s.append(payload));
        let sampling = self.tracer.is_some();
        let mut tally = self.tally();
        match &result {
            Ok(()) => {
                tally.appends += 1;
                tally.wal_payload_bytes += payload.len() as u64;
                if sampling && tally.sample_records.len() < SAMPLE_RECORDS {
                    tally.sample_records.push(payload.to_vec());
                }
            }
            Err(_) => tally.append_errors += 1,
        }
        drop(tally);
        result
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        let result = self.timed(span::SNAPSHOT, |s| s.write_snapshot(snapshot));
        let sampling = self.tracer.is_some();
        let mut tally = self.tally();
        match &result {
            Ok(()) => {
                let len = snapshot.len() as u64;
                tally.snapshots += 1;
                tally.snapshot_bytes += len;
                tally.snapshot_bytes_max = tally.snapshot_bytes_max.max(len);
                if sampling {
                    tally.last_snapshot = Some(snapshot.to_vec());
                }
            }
            Err(_) => tally.snapshot_errors += 1,
        }
        drop(tally);
        result
    }

    fn load(&mut self) -> io::Result<StoreContents> {
        let result = self.timed(span::LOAD, |s| s.load());
        let mut tally = self.tally();
        match &result {
            Ok(_) => tally.loads += 1,
            Err(_) => tally.load_errors += 1,
        }
        drop(tally);
        result
    }

    fn wal_records(&self) -> u64 {
        self.inner.wal_records()
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }

    fn snapshot_bytes(&self) -> u64 {
        self.inner.snapshot_bytes()
    }

    fn set_snapshot_retention(&mut self, generations: u32) {
        self.inner.set_snapshot_retention(generations);
    }

    fn snapshot_generations(&self) -> u64 {
        self.inner.snapshot_generations()
    }
}
