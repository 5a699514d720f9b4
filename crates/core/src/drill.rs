//! Backend-generic crash-drill harness for the durable control plane.
//!
//! The recovery suite (`tests/recovery.rs`) and the crash-drill matrix
//! (`tests/store_matrix.rs`) run the same experiment: optimize a seeded
//! scenario with a journaling control plane, kill it at a seeded tick,
//! restore from the surviving store, finish the run, and compare the
//! [`Fingerprint`] (full action log + billed credits, bit for bit) against
//! an uninterrupted run.
//! This module is that experiment, factored once so both store media —
//! [`MemStore`] and [`FileStore`], each behind a [`FaultyStore`] running the
//! cell's fault plan — go through one table-driven path. A file cell can
//! instead be killed inside compaction ([`DrillCell::kill_in_snapshot`]),
//! between a snapshot's rename and the WAL truncation behind it.
//!
//! Like [`CrashPlan`], this is library code rather than test-only code on
//! purpose: two integration-test files drive the same cells, so a failure
//! in either points at the same drill.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::actuator::ActionLogEntry;
use crate::orchestrator::{KwoSetup, Orchestrator};
use crate::persist::{PersistError, RecoveryStats};
use crate::store::{
    CrashPlan, FaultyStore, FileStore, MemStore, StateStore, StoreContents, StoreFaultPlan,
    FRAME_HEADER_BYTES, WAL_FILE,
};
use cdw_sim::{
    Account, FaultPlan, SimTime, Simulator, WarehouseConfig, WarehouseId, WarehouseSize, DAY_MS,
    HOUR_MS, MINUTE_MS,
};
use workload::{generate_trace, BiWorkload, EtlWorkload};

/// The one warehouse every drill scenario manages.
pub const WAREHOUSE: &str = "WH";
/// Control-tick cadence of the drill setups.
pub const TICK_MS: u64 = 30 * MINUTE_MS;
/// Observation window before onboarding.
pub const OBSERVE_MS: u64 = DAY_MS;
/// End of the standard drill run.
pub const END_MS: u64 = 2 * DAY_MS;
/// Number of drill scenarios [`build_sim`] knows.
pub const SCENARIOS: usize = 5;

/// Control ticks in the optimization window of a standard drill run.
pub const OPTIMIZE_TICKS: u64 = (END_MS - OBSERVE_MS) / TICK_MS;

/// The observable outcome recovery must reproduce exactly: the full action
/// log and the warehouse's billed credits (as raw bits — no float slop).
pub type Fingerprint = (Vec<ActionLogEntry>, u64);

/// Drill-speed KWO setup: 30-minute ticks, cheap training.
pub fn fast_setup() -> KwoSetup {
    KwoSetup {
        realtime_interval_ms: TICK_MS,
        onboarding_episodes: 2,
        refresh_episodes: 0,
        train_interval_ms: 2 * DAY_MS,
        ..KwoSetup::default()
    }
}

/// Five distinct scenarios: sizes, workload shapes, and fault plans vary so
/// recovery is exercised through outages, failed ALTERs, and both workload
/// archetypes — not just the happy path.
pub fn build_sim(scenario: usize, seed: u64) -> (Simulator, WarehouseId) {
    let size = match scenario % 3 {
        0 => WarehouseSize::Large,
        1 => WarehouseSize::Medium,
        _ => WarehouseSize::XLarge,
    };
    let mut account = Account::new();
    let wh = account.create_warehouse(
        WAREHOUSE,
        WarehouseConfig::new(size).with_auto_suspend_secs(1800),
    );
    let plan = match scenario {
        3 => FaultPlan::none().with_telemetry_outage(DAY_MS + 2 * HOUR_MS, DAY_MS + 5 * HOUR_MS),
        4 => FaultPlan::none().with_alter_burst(DAY_MS + HOUR_MS, DAY_MS + 6 * HOUR_MS, 1.0),
        _ => FaultPlan::none(),
    };
    let mut sim = Simulator::with_faults(account, plan, seed ^ 0xFA11);
    let queries = if scenario.is_multiple_of(2) {
        generate_trace(
            &BiWorkload {
                dashboards: 2,
                queries_per_refresh: 2,
                peak_refreshes_per_hour: 4.0,
                ..BiWorkload::default()
            },
            0,
            END_MS,
            seed,
        )
    } else {
        generate_trace(
            &EtlWorkload {
                pipelines: 2,
                queries_per_run: 2,
                period_ms: 2 * HOUR_MS,
                ..EtlWorkload::default()
            },
            0,
            END_MS,
            seed,
        )
    };
    for q in queries {
        sim.submit_query(wh, q);
    }
    (sim, wh)
}

/// Fingerprints a finished run. An unmanaged warehouse yields an empty log
/// (the comparison against a managed baseline then fails loudly).
pub fn fingerprint(kwo: &Orchestrator, sim: &Simulator, wh: WarehouseId) -> Fingerprint {
    let log = kwo
        .optimizer(WAREHOUSE)
        .map(|o| o.actuator().log().to_vec())
        .unwrap_or_default();
    let credits = sim.account().accrued_credits(wh, sim.now()).to_bits();
    (log, credits)
}

/// The store-less baseline every drill cell is compared against.
pub fn run_uninterrupted(scenario: usize, seed: u64) -> Fingerprint {
    let (mut sim, wh) = build_sim(scenario, seed);
    let mut kwo = Orchestrator::new(seed);
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    kwo.observe_until(&mut sim, OBSERVE_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, END_MS);
    fingerprint(&kwo, &sim, wh)
}

/// Which medium the drill journals to.
#[derive(Debug, Clone)]
pub enum DrillBackend {
    /// In-memory store (handle cloned across the crash).
    Mem,
    /// File store rooted at this directory (reopened after the crash).
    File(PathBuf),
}

/// One cell of the crash-drill matrix.
#[derive(Debug, Clone)]
pub struct DrillCell {
    /// Scenario index, `0..SCENARIOS`.
    pub scenario: usize,
    /// Run seed (workload + learning).
    pub seed: u64,
    /// Seed for the [`CrashPlan`] picking the kill tick.
    pub crash_seed: u64,
    /// Store medium under drill.
    pub backend: DrillBackend,
    /// Fault plan the store runs behind ([`StoreFaultPlan::none`] for a
    /// healthy one).
    pub faults: StoreFaultPlan,
    /// Compaction interval override, in ticks; `None` runs the default
    /// (48-tick cadence).
    pub snapshot_interval: Option<u64>,
    /// Also tear the WAL tail after the kill: the final record is lost (cut
    /// mid-frame on a file store), so bit-identity against the baseline is
    /// not expected.
    pub torn: bool,
    /// File cells only: kill inside the `k`-th snapshot write instead of at
    /// the crash tick — the snapshot lands, the WAL it should have
    /// truncated is put back, and every later operation is dropped. The
    /// first snapshot is `attach_store`'s, so `k ≥ 2` kills inside a
    /// compaction, `k = 2` at the first one after `manage`.
    pub kill_in_snapshot: Option<u32>,
}

impl DrillCell {
    /// A clean-kill cell on a healthy `backend` at the default cadence.
    pub fn clean(scenario: usize, seed: u64, crash_seed: u64, backend: DrillBackend) -> Self {
        Self {
            scenario,
            seed,
            crash_seed,
            backend,
            faults: StoreFaultPlan::none(),
            snapshot_interval: None,
            torn: false,
            kill_in_snapshot: None,
        }
    }

    /// The tick boundary this cell's control plane is killed at.
    pub fn crash_tick(&self) -> u64 {
        CrashPlan::from_seed(self.crash_seed, OPTIMIZE_TICKS).crash_tick
    }
}

/// What one drill cell produced.
#[derive(Debug)]
pub struct DrillOutcome {
    /// Fingerprint of the finished (crashed + recovered) run.
    pub fingerprint: Fingerprint,
    /// Recovery statistics from the restore.
    pub stats: RecoveryStats,
    /// Simulated time the control plane was killed at.
    pub crash_at: SimTime,
    /// WAL bytes destroyed by the torn-tail injection (0 for clean kills).
    pub dropped_bytes: u64,
    /// Whether the recovered optimizer was still onboarded at the end.
    pub onboarded: bool,
}

/// The survivor side of the crash: whatever outlives the dead control
/// plane's store handle.
enum Survivor {
    Mem(FaultyStore<MemStore>),
    File(PathBuf),
}

/// A [`FileStore`] whose process dies inside its `k`-th snapshot write,
/// after the rename and before the WAL truncation: the snapshot lands, the
/// WAL it holds is put back, and nothing the dead process does afterwards
/// reaches the disk.
struct CompactionKill {
    store: FileStore,
    snapshots_left: u32,
    killed: Arc<AtomicBool>,
}

impl StateStore for CompactionKill {
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.store.append(payload)
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.snapshots_left = self.snapshots_left.saturating_sub(1);
        if self.snapshots_left > 0 {
            return self.store.write_snapshot(snapshot);
        }
        let wal = self.store.dir().join(WAL_FILE);
        let untruncated = fs::read(&wal)?;
        self.store.write_snapshot(snapshot)?;
        fs::write(&wal, untruncated)?;
        self.killed.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn load(&mut self) -> io::Result<StoreContents> {
        self.store.load()
    }

    fn wal_records(&self) -> u64 {
        self.store.wal_records()
    }

    fn wal_bytes(&self) -> u64 {
        self.store.wal_bytes()
    }

    fn snapshot_bytes(&self) -> u64 {
        self.store.snapshot_bytes()
    }
}

/// Runs one drill cell end to end: journal, kill, (optionally) tear,
/// restore, finish. Errors surface store/recovery failures — a cell whose
/// fault plan defeats the orchestrator's retries reports it here rather
/// than panicking.
pub fn run_cell(cell: &DrillCell) -> Result<DrillOutcome, PersistError> {
    let plan = CrashPlan::from_seed(cell.crash_seed, OPTIMIZE_TICKS);
    let (mut sim, wh) = build_sim(cell.scenario, cell.seed);
    let mut kwo = Orchestrator::new(cell.seed);
    if let Some(ticks) = cell.snapshot_interval {
        kwo.set_snapshot_interval(ticks);
    }
    let killed = Arc::new(AtomicBool::new(false));
    let survivor = match &cell.backend {
        DrillBackend::Mem => {
            let s = FaultyStore::new(MemStore::new(), cell.faults);
            kwo.attach_store(Box::new(s.clone()), sim.now());
            Survivor::Mem(s)
        }
        DrillBackend::File(dir) => {
            let file = FileStore::open(dir)?;
            let store: Box<dyn StateStore> = match cell.kill_in_snapshot {
                Some(k) => {
                    let kill = CompactionKill {
                        store: file,
                        snapshots_left: k,
                        killed: Arc::clone(&killed),
                    };
                    Box::new(FaultyStore::new(kill, cell.faults))
                }
                None => Box::new(FaultyStore::new(file, cell.faults)),
            };
            kwo.attach_store(store, sim.now());
            Survivor::File(dir.clone())
        }
    };
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    // Observe, onboard, optimize — one tick at a time, so a kill inside
    // compaction stops the run in the tick it fired in.
    let crash_tick_at = OBSERVE_MS + plan.crash_tick * TICK_MS;
    let dies_at = |t: SimTime| match cell.kill_in_snapshot {
        Some(_) => killed.load(Ordering::SeqCst),
        None => t == crash_tick_at,
    };
    let mut crash_at = sim.now();
    while crash_at < END_MS {
        crash_at += TICK_MS;
        kwo.run_until(&mut sim, crash_at);
        if dies_at(crash_at) {
            break;
        }
        if crash_at == OBSERVE_MS {
            kwo.onboard(&mut sim);
        }
    }
    // The control plane dies; the warehouse and the store survive.
    drop(kwo);

    let mut dropped_bytes = 0u64;
    let store: Box<dyn StateStore> = match survivor {
        Survivor::Mem(s) => {
            if cell.torn {
                dropped_bytes = s.inner().drop_last_record();
            }
            Box::new(s)
        }
        Survivor::File(dir) => {
            let mut s = FileStore::open(&dir)?;
            if cell.torn {
                // Kill mid-write: cut inside the final frame.
                let last_frame = s
                    .load()?
                    .records
                    .last()
                    .map_or(0, |p| (p.len() + FRAME_HEADER_BYTES) as u64);
                dropped_bytes = last_frame - plan.torn_offset(last_frame);
                s.truncate_wal_to(s.wal_bytes() - dropped_bytes)?;
            }
            // A reopened file is a new handle: its fault stream starts over.
            Box::new(FaultyStore::new(s, cell.faults))
        }
    };

    let (mut kwo, stats) = Orchestrator::restore(store, &sim)?;
    if let Some(ticks) = cell.snapshot_interval {
        kwo.set_snapshot_interval(ticks);
    }
    if crash_at <= OBSERVE_MS {
        kwo.observe_until(&mut sim, OBSERVE_MS);
        kwo.onboard(&mut sim);
    }
    kwo.run_until(&mut sim, END_MS);
    Ok(DrillOutcome {
        fingerprint: fingerprint(&kwo, &sim, wh),
        stats,
        crash_at,
        dropped_bytes,
        onboarded: kwo.optimizer(WAREHOUSE).is_some_and(|o| o.onboarded()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_cells_pick_in_range_crash_ticks() {
        for crash_seed in 0..64u64 {
            let cell = DrillCell::clean(0, 1, crash_seed, DrillBackend::Mem);
            let t = cell.crash_tick();
            assert!(
                (1..OPTIMIZE_TICKS).contains(&t),
                "crash tick {t} outside the optimization window"
            );
        }
    }

    #[test]
    fn scenarios_produce_distinct_simulations() {
        // Cheap sanity: scenario variation actually changes the warehouse
        // and the fault plan, so the matrix is not 5 copies of one drill.
        let sizes: Vec<WarehouseSize> = (0..SCENARIOS)
            .map(|s| {
                let (sim, wh) = build_sim(s, 7);
                sim.account().describe(wh).config.size
            })
            .collect();
        assert!(
            sizes.windows(2).any(|w| w[0] != w[1]),
            "all scenarios produced the same warehouse size: {sizes:?}"
        );
        let (outage_sim, _) = build_sim(3, 7);
        let (calm_sim, _) = build_sim(0, 7);
        assert_ne!(
            outage_sim.fault_plan(),
            calm_sim.fault_plan(),
            "scenario 3 should carry a telemetry-outage fault plan"
        );
    }
}
