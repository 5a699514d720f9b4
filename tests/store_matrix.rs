//! Crash-drill matrix across the store media and the fault decorator.
//!
//! The contract pinned here extends `tests/recovery.rs` from one store to
//! every composition `keebo::store` offers: on **both** media — [`MemStore`]
//! and `FileStore`, healthy or behind a [`FaultyStore`] under seeded fault
//! plans — a control plane killed at any seeded tick boundary recovers
//! *bit-identically*: the recovered run's decision log and billing match an
//! uninterrupted run of the same scenario exactly. The matrix covers ≥100
//! seeded (medium, fault plan, scenario, seed, crash tick, cadence) cells;
//! half the cells compact every 7 ticks instead of the default 48, so
//! compaction itself is proven invisible.
//!
//! Also pinned here:
//! * a kill inside compaction — after a `FileStore` snapshot's rename,
//!   before its WAL truncation — recovers bit-identically at both cadences,
//!   from the first compaction after `manage` on;
//! * negative paths: each injected `FaultyStore` fault increments its
//!   matching fail-open `keebo.store.*` counter while the optimization
//!   digest stays identical to a store-less run;
//! * compaction bounds replay: a 10k-tick run keeps the WAL (and therefore
//!   recovery replay) within one interval and holds one snapshot;
//! * a restart keeps the compaction schedule: restore writes nothing and
//!   resumes its snapshot's age, so a run killed twice mid-interval ends
//!   with the uninterrupted run's store, byte for byte, on both media;
//! * the snapshot envelope round-trips and every truncation is an error.

#![allow(clippy::panic, clippy::disallowed_types)]

use std::collections::HashMap;
use std::path::PathBuf;

use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS};
use keebo::drill::{
    build_sim, fast_setup, fingerprint, run_cell, run_uninterrupted, DrillBackend, DrillCell,
    DrillOutcome, Fingerprint, END_MS, OBSERVE_MS, SCENARIOS, TICK_MS, WAREHOUSE,
};
use keebo::persist::{decode_snapshot, encode_snapshot};
use keebo::{
    generate_trace, FaultyStore, FileStore, KwoSetup, MemStore, Orchestrator, StateStore,
    StoreFaultPlan, DEFAULT_SNAPSHOT_INTERVAL_TICKS,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use workload::EtlWorkload;

/// The tight cadence half the matrix cells compact at, in ticks.
const TIGHT_INTERVAL: u64 = 7;

/// Fault plans the faulted cells run under. Append rates stay well under the
/// orchestrator's 4-attempt retry budget so no plan ever detaches the store
/// (a detach would — correctly — fail the bit-identity assertion).
fn fault_plans() -> [StoreFaultPlan; 4] {
    [
        // Healthy remote: the decorator alone.
        StoreFaultPlan {
            seed: 0xA0,
            ..StoreFaultPlan::none()
        },
        // Flaky appends (4%).
        StoreFaultPlan {
            seed: 0xA1,
            append_error_ppm: 40_000,
            ..StoreFaultPlan::none()
        },
        // Failing snapshot writes (30%) — compaction limps, WAL covers.
        StoreFaultPlan {
            seed: 0xB2,
            snapshot_error_ppm: 300_000,
            ..StoreFaultPlan::none()
        },
        // Everything at once: flaky appends, snapshots, and load timeouts.
        StoreFaultPlan {
            seed: 0xC3,
            append_error_ppm: 30_000,
            snapshot_error_ppm: 200_000,
            read_timeout_ppm: 80_000,
        },
    ]
}

/// Applies the matrix's cadence split: odd crash seeds compact every
/// [`TIGHT_INTERVAL`] ticks, even ones at the default cadence.
fn with_cadence_split(mut cell: DrillCell) -> DrillCell {
    if cell.crash_seed % 2 == 1 {
        cell.snapshot_interval = Some(TIGHT_INTERVAL);
    }
    cell
}

fn mem_cells() -> Vec<DrillCell> {
    let mut cells = Vec::new();
    for scenario in 0..SCENARIOS {
        for seed in [11u64, 12] {
            for k in 0..4u64 {
                let crash_seed = scenario as u64 * 1_000 + seed * 10 + k;
                cells.push(with_cadence_split(DrillCell::clean(
                    scenario,
                    seed,
                    crash_seed,
                    DrillBackend::Mem,
                )));
            }
        }
    }
    cells
}

fn file_cells() -> Vec<DrillCell> {
    let mut cells = Vec::new();
    for scenario in [1usize, 4] {
        for seed in [21u64, 22] {
            for k in 0..4u64 {
                let crash_seed = scenario as u64 * 1_000 + seed * 10 + k;
                let dir = scratch_dir(&format!("cell-{scenario}-{seed}-{k}"));
                cells.push(with_cadence_split(DrillCell::clean(
                    scenario,
                    seed,
                    crash_seed,
                    DrillBackend::File(dir),
                )));
            }
        }
    }
    cells
}

/// Every fault plan over both media: the first two crash seeds of each
/// (plan, scenario) wrap a `MemStore`, the last two a `FileStore`, so each
/// medium meets each plan at both cadences.
fn faulted_cells() -> Vec<DrillCell> {
    let mut cells = Vec::new();
    for (p, plan) in fault_plans().into_iter().enumerate() {
        for scenario in [0usize, 2, 3] {
            for k in 0..4u64 {
                let crash_seed = p as u64 * 10_000 + scenario as u64 * 100 + k;
                let backend = if k < 2 {
                    DrillBackend::Mem
                } else {
                    DrillBackend::File(scratch_dir(&format!("faulted-{p}-{scenario}-{k}")))
                };
                let mut cell = DrillCell::clean(scenario, 31, crash_seed, backend);
                cell.faults = plan;
                cells.push(with_cadence_split(cell));
            }
        }
    }
    cells
}

/// Kills inside compaction on the file cells' scenarios and seeds, at both
/// cadences: the snapshot after `manage` (`k = 2`, the first is attach's)
/// and a later one — at the default cadence the last observed tick and the
/// run's end, at the tight one an observed tick and an optimized one.
fn compaction_kill_cells() -> Vec<DrillCell> {
    let mut cells = Vec::new();
    for scenario in [1usize, 4] {
        for seed in [21u64, 22] {
            let later = if seed == 21 { 8 } else { 13 };
            for (interval, k) in [
                (DEFAULT_SNAPSHOT_INTERVAL_TICKS, 2),
                (DEFAULT_SNAPSHOT_INTERVAL_TICKS, 3),
                (TIGHT_INTERVAL, 2),
                (TIGHT_INTERVAL, later),
            ] {
                let dir = scratch_dir(&format!("kill-{scenario}-{seed}-{interval}-{k}"));
                cells.push(DrillCell {
                    snapshot_interval: Some(interval),
                    kill_in_snapshot: Some(k),
                    ..DrillCell::clean(scenario, seed, 0, DrillBackend::File(dir))
                });
            }
        }
    }
    cells
}

/// Runs every cell against a cached per-(scenario, seed) baseline and
/// asserts bit-identity. Returns each cell's outcome.
///
/// A failing file-backed cell is its own repro: the assert panics before the
/// `remove_dir_all` below, so its WAL directory stays on disk, and the
/// cell's `Debug` in the panic message prints the path.
fn drill_cells(cells: &[DrillCell], label: &str) -> Vec<DrillOutcome> {
    let mut baselines: HashMap<(usize, u64), Fingerprint> = HashMap::new();
    let mut outcomes = Vec::new();
    for cell in cells {
        let base = baselines
            .entry((cell.scenario, cell.seed))
            .or_insert_with(|| run_uninterrupted(cell.scenario, cell.seed))
            .clone();
        assert!(
            !base.0.is_empty(),
            "{label}: scenario {} baseline took no actions",
            cell.scenario
        );
        let out = run_cell(cell)
            .unwrap_or_else(|e| panic!("{label}: cell {cell:?} failed to recover: {e}"));
        assert_eq!(
            out.fingerprint.0, base.0,
            "{label}: decision log diverged, cell {cell:?} (crash at {} ms)",
            out.crash_at
        );
        assert_eq!(
            out.fingerprint.1, base.1,
            "{label}: billing diverged, cell {cell:?} (crash at {} ms)",
            out.crash_at
        );
        assert_eq!(
            out.stats.wal_truncated_bytes, 0,
            "{label}: clean kill must leave a clean WAL, cell {cell:?}"
        );
        if let DrillBackend::File(dir) = &cell.backend {
            std::fs::remove_dir_all(dir).ok();
        }
        outcomes.push(out);
    }
    outcomes
}

#[test]
fn matrix_covers_at_least_100_cells() {
    let total = mem_cells().len() + file_cells().len() + faulted_cells().len();
    assert!(total >= 100, "matrix shrank below the floor: {total} cells");
}

#[test]
fn mem_store_matrix_recovers_bit_identically() {
    assert_eq!(drill_cells(&mem_cells(), "mem").len(), 40);
}

#[test]
fn file_store_matrix_recovers_bit_identically() {
    assert_eq!(drill_cells(&file_cells(), "file").len(), 16);
}

#[test]
fn faulted_store_matrix_recovers_bit_identically() {
    assert_eq!(drill_cells(&faulted_cells(), "faulted").len(), 48);
}

#[test]
fn a_kill_inside_compaction_recovers_bit_identically() {
    let cells = compaction_kill_cells();
    let outcomes = drill_cells(&cells, "compaction kill");
    assert_eq!(outcomes.len(), 16);
    for (cell, out) in cells.iter().zip(&outcomes) {
        // The k-th snapshot is the (k-1)-th compaction: the kill landed
        // there, and restore started from that snapshot alone.
        let (interval, k) = (
            cell.snapshot_interval.unwrap(),
            cell.kill_in_snapshot.unwrap(),
        );
        let compactions = u64::from(k - 1);
        assert_eq!(out.crash_at, compactions * interval * TICK_MS, "{cell:?}");
        assert!(out.stats.snapshot_bytes > 0, "{cell:?}");
        assert_eq!(out.stats.replayed_records, 0, "{cell:?}");
    }
}

// ---- negative paths: every injected fault counts, digests never change ----

/// Runs scenario 0 / seed 77 with the given store attached the whole way
/// (no crash) and returns its fingerprint.
fn run_attached(store: FaultyStore<MemStore>) -> Fingerprint {
    let (mut sim, wh) = build_sim(0, 77);
    let mut kwo = Orchestrator::new(77);
    kwo.attach_store(Box::new(store), sim.now());
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    kwo.observe_until(&mut sim, OBSERVE_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, END_MS);
    fingerprint(&kwo, &sim, wh)
}

#[test]
fn append_faults_count_then_detach_fail_open() {
    let obs = keebo::obs::global();
    let errors_before = obs.counter("keebo.store.append_errors").get();
    let detached_before = obs.counter("keebo.store.detached").get();
    let baseline = run_uninterrupted(0, 77);

    // Every append fails: the genesis append burns all 4 attempts, the
    // store detaches, and the run proceeds exactly as if no store existed.
    let plan = StoreFaultPlan {
        seed: 9,
        append_error_ppm: 1_000_000,
        ..StoreFaultPlan::none()
    };
    let digest = run_attached(FaultyStore::new(MemStore::new(), plan));

    assert_eq!(
        digest, baseline,
        "fail-open: digest must match no-store run"
    );
    // Counters are process-global and tests run in parallel, so assert
    // deltas (≥), never exact values.
    assert!(
        obs.counter("keebo.store.append_errors").get() - errors_before >= 4,
        "each failed append attempt counts"
    );
    assert!(
        obs.counter("keebo.store.detached").get() - detached_before >= 1,
        "exhausted append retries detach the store"
    );
}

#[test]
fn snapshot_faults_count_but_keep_the_store_attached() {
    let obs = keebo::obs::global();
    let errors_before = obs.counter("keebo.store.snapshot_errors").get();
    let baseline = run_uninterrupted(0, 77);

    // Every snapshot write fails: compaction never lands, but appends do —
    // the WAL alone (genesis record first) must still fully recover.
    let plan = StoreFaultPlan {
        seed: 13,
        snapshot_error_ppm: 1_000_000,
        ..StoreFaultPlan::none()
    };
    let store = FaultyStore::new(MemStore::new(), plan);
    let probe = store.clone();
    let (mut sim, wh) = build_sim(0, 77);
    let mut kwo = Orchestrator::new(77);
    kwo.attach_store(Box::new(store), sim.now());
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    kwo.observe_until(&mut sim, OBSERVE_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, END_MS);
    let digest = fingerprint(&kwo, &sim, wh);
    drop(kwo);

    assert_eq!(
        digest, baseline,
        "fail-open: digest must match no-store run"
    );
    assert!(
        obs.counter("keebo.store.snapshot_errors").get() - errors_before >= 3,
        "each failed snapshot attempt counts"
    );
    assert_eq!(probe.snapshot_bytes(), 0, "no snapshot ever landed");
    assert!(probe.wal_records() > 1, "the WAL kept every record");

    // Genesis-first recovery: restore from the snapshot-less survivor (a
    // crash at the very end of the run) and verify replay rebuilt the
    // identical end state, bit for bit, from the genesis record onward.
    let (kwo, stats) = Orchestrator::restore(Box::new(probe), &sim)
        .expect("a snapshot-less store with a genesis record must restore");
    assert_eq!(stats.snapshot_bytes, 0, "replay started from the WAL alone");
    assert!(stats.replayed_records > 1);
    assert_eq!(fingerprint(&kwo, &sim, wh), baseline);
}

#[test]
fn read_timeouts_count_and_surface_after_bounded_retries() {
    let obs = keebo::obs::global();
    let timeouts_before = obs.counter("keebo.store.read_timeouts").get();

    // Healthy writes, permanently timing-out reads: the restore retries a
    // bounded number of times (each counted), then surfaces the error.
    let plan = StoreFaultPlan {
        seed: 21,
        read_timeout_ppm: 1_000_000,
        ..StoreFaultPlan::none()
    };
    let store = FaultyStore::new(MemStore::new(), plan);
    let probe = store.clone();
    let _ = run_attached(store);

    let (sim, _wh) = build_sim(0, 77);
    let err = Orchestrator::restore(Box::new(probe), &sim);
    assert!(err.is_err(), "a permanently timing-out load cannot restore");
    assert!(
        obs.counter("keebo.store.read_timeouts").get() - timeouts_before >= 6,
        "every timed-out load attempt counts"
    );
}

// ---- compaction bounds replay over long runs ----

#[test]
fn compaction_bounds_replay_over_a_10k_tick_run() {
    const TICK: u64 = 5 * MINUTE_MS;
    const TICKS: u64 = 10_000;
    const OBSERVE: u64 = 6 * HOUR_MS;
    // One warehouse journals one record a tick, so the WAL never holds
    // more than an interval's worth.
    const INTERVAL: u64 = 64;

    let mut account = Account::new();
    let wh = account.create_warehouse(
        WAREHOUSE,
        WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
    );
    let mut sim = Simulator::new(account);
    let end = OBSERVE + TICKS * TICK;
    // Sparse workload: the point is journaling volume, not query pressure.
    for q in generate_trace(
        &EtlWorkload {
            pipelines: 1,
            queries_per_run: 1,
            period_ms: 6 * HOUR_MS,
            ..EtlWorkload::default()
        },
        0,
        end,
        99,
    ) {
        sim.submit_query(wh, q);
    }

    let store = MemStore::new();
    let probe = store.clone();
    let mut kwo = Orchestrator::new(99);
    kwo.attach_store(Box::new(store), sim.now());
    kwo.set_snapshot_interval(INTERVAL);
    kwo.manage(
        &sim,
        WAREHOUSE,
        KwoSetup {
            realtime_interval_ms: TICK,
            onboarding_episodes: 1,
            refresh_episodes: 0,
            train_interval_ms: 365 * DAY_MS,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, OBSERVE);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, end);
    drop(kwo);

    assert!(
        probe.wal_records() <= INTERVAL,
        "WAL grew unbounded over 10k ticks: {} records",
        probe.wal_records()
    );
    assert_eq!(probe.snapshot_generations(), 1, "only the latest snapshot");

    let (kwo, stats) = Orchestrator::restore(Box::new(probe), &sim)
        .expect("bounded recovery after a 10k-tick run");
    assert!(
        stats.replayed_records <= INTERVAL,
        "replay not bounded: {} records",
        stats.replayed_records
    );
    assert!(stats.snapshot_bytes > 0, "recovery started from a snapshot");
    assert!(kwo.optimizer(WAREHOUSE).is_some());
}

// ---- a restart keeps the compaction schedule ----

/// Where [`a_crash_does_not_move_the_compaction_schedule`] journals: a
/// shared `MemStore`, or a `FileStore` directory each process reopens.
enum Medium {
    Mem(MemStore),
    File(PathBuf),
}

impl Medium {
    /// A fresh handle on the medium, as a restarted process gets one.
    fn open(&self) -> Box<dyn StateStore> {
        match self {
            Medium::Mem(store) => Box::new(store.clone()),
            Medium::File(dir) => {
                Box::new(FileStore::open(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())))
            }
        }
    }

    /// What the medium holds: its snapshot generations, WAL records and
    /// snapshot size, and a hash of the snapshot and records themselves.
    fn held(&self) -> (u64, u64, u64, u64) {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut store = self.open();
        let contents = store.load().unwrap_or_else(|e| panic!("load: {e}"));
        let mut bytes = DefaultHasher::new();
        (contents.snapshot, contents.records).hash(&mut bytes);
        (
            store.snapshot_generations(),
            store.wal_records(),
            store.snapshot_bytes(),
            bytes.finish(),
        )
    }
}

/// Ticks `kwo` to `until` one tick at a time, onboarding at `OBSERVE_MS`.
fn drive(kwo: &mut Orchestrator, sim: &mut Simulator, until: u64) {
    while sim.now() < until {
        let t = sim.now() + TICK_MS;
        kwo.run_until(sim, t);
        if t == OBSERVE_MS {
            kwo.onboard(sim);
        }
    }
}

#[test]
fn a_crash_does_not_move_the_compaction_schedule() {
    let (scenario, seed) = (1, 21);
    // Compactions land every 7 ticks from attach at 0: the first kill is 2
    // ticks past one, the second 5, both before the next.
    let kills = [OBSERVE_MS + 10 * TICK_MS, OBSERVE_MS + 13 * TICK_MS];
    let start = |medium: &Medium, sim: &Simulator| {
        let mut kwo = Orchestrator::new(seed);
        kwo.set_snapshot_interval(TIGHT_INTERVAL);
        kwo.attach_store(medium.open(), sim.now());
        kwo.manage(sim, WAREHOUSE, fast_setup());
        kwo
    };
    for (label, media) in [
        (
            "mem",
            [Medium::Mem(MemStore::new()), Medium::Mem(MemStore::new())],
        ),
        (
            "file",
            [
                Medium::File(scratch_dir("schedule-whole")),
                Medium::File(scratch_dir("schedule-killed")),
            ],
        ),
    ] {
        let [whole, killed] = &media;
        let (mut sim, wh) = build_sim(scenario, seed);
        let mut kwo = start(whole, &sim);
        drive(&mut kwo, &mut sim, END_MS);
        let (age, uninterrupted) = (kwo.snapshot_age_ticks(), fingerprint(&kwo, &sim, wh));
        drop(kwo);
        assert_eq!(uninterrupted, run_uninterrupted(scenario, seed), "{label}");

        let (mut sim, wh) = build_sim(scenario, seed);
        let mut kwo = start(killed, &sim);
        for kill in kills {
            drive(&mut kwo, &mut sim, kill);
            let (before_age, before) = (kwo.snapshot_age_ticks(), killed.held());
            drop(kwo);
            kwo = Orchestrator::restore(killed.open(), &sim)
                .unwrap_or_else(|e| panic!("{label}: restore at {kill}: {e}"))
                .0;
            kwo.set_snapshot_interval(TIGHT_INTERVAL);
            // Restore only reads, and resumes the age the dead process had.
            assert_eq!(killed.held(), before, "{label}: restore at {kill}");
            assert_eq!(kwo.snapshot_age_ticks(), before_age, "{label}");
            assert!((1..TIGHT_INTERVAL).contains(&before_age), "{label}");
        }
        drive(&mut kwo, &mut sim, END_MS);
        assert_eq!(fingerprint(&kwo, &sim, wh), uninterrupted, "{label}");
        assert_eq!(kwo.snapshot_age_ticks(), age, "{label}");
        drop(kwo);
        // Same generations, same WAL, byte for byte: every compaction
        // landed on the uninterrupted run's tick, holding its state.
        assert_eq!(killed.held(), whole.held(), "{label}");
        for medium in &media {
            if let Medium::File(dir) = medium {
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }
}

// ---- envelope and fault-plan decode properties ----

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

fn tiny_snapshot(seed: u64, at: u64) -> keebo::SnapshotState {
    keebo::SnapshotState {
        version: keebo::FORMAT_VERSION,
        seed,
        at,
        optimizers: Vec::new(),
        agents: Vec::new(),
    }
}

/// The envelope round-trips byte-identically and is total under
/// truncation.
#[test]
fn envelope_round_trips_and_refuses_every_truncation() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let snap = tiny_snapshot(rng.gen(), rng.gen());
        let bytes = encode_snapshot(&snap).expect("encode");
        let back = decode_snapshot(&bytes).expect("decode");
        // SnapshotState carries no PartialEq; canonical re-encoding is the
        // equality the store cares about anyway.
        assert_eq!(
            encode_snapshot(&back).expect("re-encode"),
            bytes,
            "case {case}"
        );
        // Every truncation is an error, never a panic.
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "case {case}: {len} of {} bytes decoded",
                bytes.len()
            );
        }
    }
}

/// `StoreFaultPlan::from_genome` is total and deterministic on arbitrary
/// bytes and its rate caps always hold.
#[test]
fn store_fault_plan_genome_decode_is_total() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let len = rng.gen_range(0..64);
        let genome = random_bytes(&mut rng, len);
        let plan = StoreFaultPlan::from_genome(&genome);
        assert!(
            plan.append_error_ppm <= 120_000
                && plan.snapshot_error_ppm <= 500_000
                && plan.read_timeout_ppm <= 200_000,
            "case {case}: genome {genome:?} decodes past a cap: {plan:?}"
        );
        assert_eq!(
            plan,
            StoreFaultPlan::from_genome(&genome),
            "case {case}: genome {genome:?}"
        );
    }
}

/// Unique scratch dir per cell (integration tests run in parallel).
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kwo-matrix-{}-{tag}-{n}", std::process::id()))
}
