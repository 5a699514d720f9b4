//! The orchestrator's persistence state behind one value: the attached
//! store, the compaction interval and its tick clock, and the fail-open
//! append/snapshot paths with their retry budgets. Keeping it apart from the
//! optimizers lets a tick borrow one optimizer and the journal disjointly.

use super::{WarehouseOptimizer, DEFAULT_SNAPSHOT_INTERVAL_TICKS};
use crate::persist::{self, PersistError, PersistRecord, SnapshotState};
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

pub(super) struct Journal {
    /// Durable state store; `None` runs in-memory only (the default).
    store: Option<Box<dyn StateStore>>,
    /// Control ticks between two compactions; 0 never compacts.
    pub(super) interval_ticks: u64,
    /// Ticks since a snapshot last landed. Failed writes do not reset it,
    /// so the next tick retries.
    pub(super) ticks_since_snapshot: u64,
    /// The tick record being appended, its allocation kept between ticks.
    tick_bytes: Vec<u8>,
}

impl Default for Journal {
    fn default() -> Self {
        Self {
            store: None,
            interval_ticks: DEFAULT_SNAPSHOT_INTERVAL_TICKS,
            ticks_since_snapshot: 0,
            tick_bytes: Vec::new(),
        }
    }
}

impl Journal {
    /// Attaches `store`, whose snapshot is `age` ticks old: 0 for a fresh
    /// store, the ticks its WAL spans for a restored one, so compaction keeps
    /// the schedule of the run that wrote it.
    pub(super) fn attach(&mut self, store: Box<dyn StateStore>, age: u64) {
        self.store = Some(store);
        self.ticks_since_snapshot = age;
        keebo_obs::global()
            .gauge("keebo.store.snapshot_age_ticks")
            .set(age as f64);
    }

    /// Appends one record to the WAL, fail-open; a no-op with no store
    /// attached.
    pub(super) fn append(&mut self, record: &PersistRecord) {
        if self.store.is_some() {
            self.write(persist::encode_record(record).as_deref());
        }
    }

    /// Appends `encoded`, a record or the error that kept it from being
    /// encoded. Transient store errors are retried in line; exhausting the
    /// retries detaches the store, because a WAL missing one record can
    /// never replay correctly.
    fn write(&mut self, encoded: Result<&[u8], &PersistError>) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let obs = keebo_obs::global();
        if let Ok(bytes) = encoded {
            for _ in 0..STORE_APPEND_ATTEMPTS {
                if store.append(bytes).is_ok() {
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
    /// it as one `Tick` record, encoded straight from the optimizer. The
    /// record is only built with a store attached.
    pub(super) fn journal_tick(
        &mut self,
        o: &mut WarehouseOptimizer,
        now: SimTime,
        step: impl FnOnce(&mut WarehouseOptimizer),
    ) {
        let log_from = o.actuator.log().len();
        step(o);
        if self.store.is_some() {
            let mut bytes = std::mem::take(&mut self.tick_bytes);
            bytes.clear();
            o.encode_tick(&mut bytes, now, log_from);
            self.write(Ok(&bytes));
            self.tick_bytes = bytes;
        }
    }

    /// Writes a full snapshot and truncates the WAL, fail-open. A snapshot
    /// write that keeps failing is *not* fatal: the WAL already holds every
    /// record, so the store stays attached and compaction retries at the
    /// next tick.
    pub(super) fn snapshot(&mut self, seed: u64, optimizers: &[WarehouseOptimizer], at: SimTime) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let obs = keebo_obs::global();
        let Ok(bytes) = persist::encode_snapshot(&snapshot_state(seed, optimizers, at)) else {
            // An unencodable snapshot is a code bug, not a transient
            // store fault: no retry can help, so detach.
            obs.counter("keebo.store.snapshot_errors").inc();
            obs.counter("keebo.store.detached").inc();
            self.store = None;
            return;
        };
        for _ in 0..STORE_SNAPSHOT_ATTEMPTS {
            if store.write_snapshot(&bytes).is_ok() {
                self.ticks_since_snapshot = 0;
                obs.gauge("keebo.store.snapshot_age_ticks").set(0.0);
                return;
            }
            obs.counter("keebo.store.snapshot_errors").inc();
        }
    }

    /// Per-global-tick snapshot bookkeeping: advances the age clock and
    /// compacts once it reaches the interval.
    pub(super) fn note_tick(&mut self, seed: u64, optimizers: &[WarehouseOptimizer], at: SimTime) {
        if self.store.is_none() {
            return;
        }
        self.ticks_since_snapshot += 1;
        keebo_obs::global()
            .gauge("keebo.store.snapshot_age_ticks")
            .set(self.ticks_since_snapshot as f64);
        if self.interval_ticks > 0 && self.ticks_since_snapshot >= self.interval_ticks {
            self.snapshot(seed, optimizers, at);
        }
    }
}
