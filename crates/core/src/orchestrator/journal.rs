//! The orchestrator's persistence state behind one value: the attached
//! store, the compaction policy and its two tick clocks, and the fail-open
//! append/snapshot paths with their retry budgets. Keeping it apart from the
//! optimizers lets a tick borrow one optimizer and the journal disjointly.

use super::{SnapshotPolicy, WarehouseOptimizer};
use crate::persist::{self, PersistRecord, SnapshotState};
use crate::store::StateStore;
use cdw_sim::SimTime;

/// Extra in-line attempts before giving up on a store operation. Transient
/// remote faults (the injected kind and the real kind) usually clear on the
/// next request; a handful of retries keeps the store attached through them.
const STORE_APPEND_ATTEMPTS: u32 = 4;
const STORE_SNAPSHOT_ATTEMPTS: u32 = 3;

/// The point-in-time state a snapshot of `optimizers` at `at` holds.
pub(super) fn snapshot_state(
    seed: u64,
    optimizers: &[WarehouseOptimizer],
    at: SimTime,
) -> SnapshotState {
    let (optimizers, agents) = optimizers.iter().map(|o| o.export_snapshot()).unzip();
    SnapshotState {
        version: persist::FORMAT_VERSION,
        seed,
        at,
        optimizers,
        agents,
    }
}

#[derive(Default)]
pub(super) struct Journal {
    /// Durable state store; `None` runs in-memory only (the default).
    store: Option<Box<dyn StateStore>>,
    /// When to compact the WAL, and how many snapshots to retain.
    pub(super) policy: SnapshotPolicy,
    /// Trigger clock: ticks since the last snapshot *attempt window* was
    /// satisfied. Not reset by failed writes, so the next tick re-triggers.
    ticks_since_snapshot: u64,
    /// Age gauge clock: ticks since a snapshot actually landed.
    ticks_since_good_snapshot: u64,
}

impl Journal {
    pub(super) fn attach(&mut self, store: Box<dyn StateStore>) {
        self.store = Some(store);
        self.ticks_since_snapshot = 0;
        self.ticks_since_good_snapshot = 0;
    }

    /// Appends one record to the WAL, fail-open; a no-op with no store
    /// attached. Transient store errors are retried in line; exhausting the
    /// retries detaches the store, because a WAL missing one record can
    /// never replay correctly.
    pub(super) fn append(&mut self, record: &PersistRecord) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let obs = keebo_obs::global();
        if let Ok(bytes) = persist::encode_record(record) {
            for _ in 0..STORE_APPEND_ATTEMPTS {
                if store.append(&bytes).is_ok() {
                    return;
                }
                obs.counter("keebo.store.append_errors").inc();
            }
        } else {
            obs.counter("keebo.store.append_errors").inc();
        }
        obs.counter("keebo.store.detached").inc();
        self.store = None;
    }

    /// Runs one step of `o` (a control tick, or onboarding — which is a
    /// fetch + train, exactly what a tick record can replay) and journals
    /// it as one `Tick` record. The record is only built with a store
    /// attached: exporting the control state is the expensive part.
    pub(super) fn journal_tick(
        &mut self,
        o: &mut WarehouseOptimizer,
        now: SimTime,
        step: impl FnOnce(&mut WarehouseOptimizer),
    ) {
        let log_from = o.actuator.log().len();
        step(o);
        if self.store.is_some() {
            self.append(&o.tick_record(now, log_from));
        }
    }

    /// Writes a full snapshot and truncates the WAL, fail-open. A snapshot
    /// write that keeps failing is *not* fatal: the WAL already holds every
    /// record, so the store stays attached and compaction retries at the
    /// next trigger. Returns whether a snapshot landed.
    pub(super) fn snapshot(
        &mut self,
        seed: u64,
        optimizers: &[WarehouseOptimizer],
        at: SimTime,
    ) -> bool {
        let Some(store) = self.store.as_mut() else {
            return false;
        };
        let obs = keebo_obs::global();
        let Ok(bytes) = persist::encode_snapshot(&snapshot_state(seed, optimizers, at)) else {
            // An unencodable snapshot is a code bug, not a transient
            // store fault: no retry can help, so detach.
            obs.counter("keebo.store.snapshot_errors").inc();
            obs.counter("keebo.store.detached").inc();
            self.store = None;
            return false;
        };
        store.set_snapshot_retention(self.policy.retain_snapshots);
        for _ in 0..STORE_SNAPSHOT_ATTEMPTS {
            if store.write_snapshot(&bytes).is_ok() {
                self.ticks_since_snapshot = 0;
                self.ticks_since_good_snapshot = 0;
                obs.gauge("keebo.store.snapshot_age_ticks").set(0.0);
                return true;
            }
            obs.counter("keebo.store.snapshot_errors").inc();
        }
        false
    }

    /// Per-global-tick snapshot bookkeeping: advances the age clocks and
    /// fires compaction when any [`SnapshotPolicy`] trigger is met.
    pub(super) fn note_tick(&mut self, seed: u64, optimizers: &[WarehouseOptimizer], at: SimTime) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        self.ticks_since_snapshot += 1;
        self.ticks_since_good_snapshot += 1;
        keebo_obs::global()
            .gauge("keebo.store.snapshot_age_ticks")
            .set(self.ticks_since_good_snapshot as f64);
        let policy = self.policy;
        let age_due =
            policy.interval_ticks > 0 && self.ticks_since_snapshot >= policy.interval_ticks;
        let bytes_due = policy.max_wal_bytes > 0 && store.wal_bytes() >= policy.max_wal_bytes;
        let records_due =
            policy.max_wal_records > 0 && store.wal_records() >= policy.max_wal_records;
        if age_due || bytes_due || records_due {
            self.snapshot(seed, optimizers, at);
        }
    }
}
