//! Crash-recovery suite: the durable control plane end to end.
//!
//! Crash model (see `keebo::store`): the control-plane process dies, the
//! warehouse — the cloud — survives. The contracts pinned here:
//!
//! 1. a clean kill at *any* tick boundary recovers bit-identically — the
//!    recovered run's decision log and billing match an uninterrupted run
//!    of the same scenario exactly (smoke here; the ≥100-cell
//!    backend × fault-plan × crash-tick matrix lives in
//!    `tests/store_matrix.rs`, driven by the shared `keebo::drill`
//!    harness);
//! 2. a torn WAL tail (kill mid-write) loses at most the final unflushed
//!    record, is reported, never panics, and the control plane keeps
//!    operating afterwards;
//! 3. warm restart beats cold start: a restored control plane skips
//!    re-onboarding and keeps its savings baseline, where a from-scratch
//!    control plane loses both;
//! 4. every persisted record/snapshot re-encodes byte-identically after a
//!    decode round trip, and the decoders are total on arbitrary bytes.

#![allow(clippy::expect_used)]

use cdw_sim::{
    Account, QuerySpec, Simulator, WarehouseConfig, WarehouseId, WarehouseSize, DAY_MS, HOUR_MS,
    MINUTE_MS,
};
use keebo::drill::{
    build_sim, fast_setup, run_cell, run_uninterrupted, DrillBackend, DrillCell, END_MS,
    OBSERVE_MS, TICK_MS, WAREHOUSE,
};
use keebo::persist::{decode_record, decode_snapshot, encode_record, encode_snapshot};
use keebo::{
    scan_frames, DetRng, KwoSetup, MemStore, Orchestrator, PersistError, PersistRecord,
    RecoveryStats, Rule, RuleEffect, SliderPosition, StateStore, TimeWindow,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn recovery_is_bit_identical_smoke() {
    // Breadth lives in tests/store_matrix.rs; this is the fast canary on
    // the plain MemStore path.
    for (scenario, crash_seed) in [(0usize, 3u64), (3, 7)] {
        let seed = 100 + scenario as u64 * 17;
        let (base_log, base_credits) = run_uninterrupted(scenario, seed);
        assert!(
            !base_log.is_empty(),
            "scenario {scenario}: baseline took actions"
        );
        let cell = DrillCell::clean(scenario, seed, crash_seed, DrillBackend::Mem);
        let out = run_cell(&cell).expect("recovery from a clean kill");
        assert_eq!(
            out.fingerprint.0, base_log,
            "scenario {scenario}: decision log diverged after crash at {} ms",
            out.crash_at
        );
        assert_eq!(
            out.fingerprint.1, base_credits,
            "scenario {scenario}: billing diverged after crash at {} ms",
            out.crash_at
        );
        assert!(
            out.stats.snapshot_bytes > 0,
            "recovery started from a snapshot"
        );
        assert_eq!(out.stats.wal_truncated_bytes, 0, "clean kill, clean WAL");
    }
}

/// A torn-tail cell with a long snapshot interval: plenty of WAL records at
/// kill time.
fn torn_cell(scenario: usize, seed: u64, crash_seed: u64, backend: DrillBackend) -> DrillCell {
    DrillCell {
        snapshot_interval: Some(1_000),
        torn: true,
        ..DrillCell::clean(scenario, seed, crash_seed, backend)
    }
}

#[test]
fn torn_wal_tail_loses_at_most_the_last_record() {
    let torn = torn_cell(0, 909, 11, DrillBackend::Mem);
    // The same kill without the tear replays every record the WAL held.
    let clean = DrillCell {
        torn: false,
        ..torn.clone()
    };
    let records_before = run_cell(&clean).expect("clean twin").stats.replayed_records;
    assert!(records_before > 1, "scenario accumulated WAL records");
    let out = run_cell(&torn).expect("torn tail must not prevent recovery");
    // The kill tore the final record off the log.
    assert!(out.dropped_bytes > 0);
    assert_eq!(out.stats.replayed_records, records_before - 1);
    // The recovered control plane lost one tick of bookkeeping but keeps
    // operating: the run completes and keeps making decisions.
    assert!(out.onboarded, "recovery preserved onboarding");
    assert!(
        f64::from_bits(out.fingerprint.1) > 0.0,
        "run completed with billing intact"
    );
}

#[test]
fn file_store_clean_recovery_is_bit_identical() {
    let (scenario, seed) = (1, 4242);
    let (base_log, base_credits) = run_uninterrupted(scenario, seed);
    let dir = scratch_dir("clean");
    // Process dies: every file handle goes away; only the directory
    // survives. Mid-cycle snapshot cadence: recovery mixes snapshot + live
    // WAL.
    let cell = DrillCell {
        snapshot_interval: Some(13),
        ..DrillCell::clean(scenario, seed, 17, DrillBackend::File(dir.clone()))
    };
    let out = run_cell(&cell).expect("recovery");
    assert!(out.stats.snapshot_bytes > 0);
    assert_eq!(out.stats.wal_truncated_bytes, 0);
    assert_eq!(out.fingerprint.0, base_log, "file-backed recovery diverged");
    assert_eq!(
        out.fingerprint.1, base_credits,
        "file-backed billing diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_store_torn_write_is_truncated_and_reported() {
    let dir = scratch_dir("torn");
    // Kill mid-write: the final frame of the WAL file is cut short.
    let cell = torn_cell(2, 5150, 9, DrillBackend::File(dir.clone()));
    let out = run_cell(&cell).expect("a torn tail is truncated, not fatal");
    assert!(
        out.stats.wal_truncated_bytes > 0,
        "torn bytes are reported: {:?}",
        out.stats
    );
    assert!(out.stats.replayed_records > 0, "intact prefix replayed");
    assert!(out.onboarded);
    assert!(f64::from_bits(out.fingerprint.1) > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Idle-heavy pre-crash history shared by the warm/cold comparison: a Large,
/// mostly idle warehouse optimized for two days, control plane killed at
/// day 3.
fn pre_crash_idle_run(seed: u64) -> (Simulator, WarehouseId, MemStore) {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        WAREHOUSE,
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
    );
    let mut sim = Simulator::new(account);
    for h in 0..(4 * 24) {
        sim.submit_query(
            wh,
            QuerySpec::builder(h)
                .work_ms_xs(30_000.0)
                .cache_affinity(0.2)
                .arrival_ms(h * HOUR_MS + 7 * MINUTE_MS)
                .build(),
        );
    }
    let store = MemStore::new();
    let mut kwo = Orchestrator::new(seed);
    kwo.attach_store(Box::new(store.clone()), sim.now());
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    kwo.observe_until(&mut sim, DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 3 * DAY_MS);
    drop(kwo);
    (sim, wh, store)
}

#[test]
fn warm_restart_beats_cold_start_on_the_same_seed() {
    let seed = 77;

    // Warm: restore from the WAL and keep optimizing immediately.
    let (mut sim_warm, _wh, store) = pre_crash_idle_run(seed);
    let (mut warm, stats) = Orchestrator::restore(Box::new(store), &sim_warm).expect("recovery");
    assert!(
        warm.optimizer(WAREHOUSE).expect("managed").onboarded(),
        "warm restart skips re-onboarding"
    );
    assert!(stats.snapshot_bytes > 0);
    warm.run_until(&mut sim_warm, 4 * DAY_MS);
    let warm_report = warm.savings_report(&sim_warm, WAREHOUSE, 3 * DAY_MS, 4 * DAY_MS);

    // Cold: identical history, but the replacement control plane starts
    // from nothing — it must re-observe and re-onboard, and its "original"
    // baseline is whatever config the dead optimizer happened to leave.
    let (mut sim_cold, _wh, _store) = pre_crash_idle_run(seed);
    let mut cold = Orchestrator::new(seed);
    cold.manage(&sim_cold, WAREHOUSE, fast_setup());
    assert!(!cold.optimizer(WAREHOUSE).expect("managed").onboarded());
    cold.observe_until(&mut sim_cold, 3 * DAY_MS + 12 * HOUR_MS);
    cold.onboard(&mut sim_cold);
    cold.run_until(&mut sim_cold, 4 * DAY_MS);
    let cold_report = cold.savings_report(&sim_cold, WAREHOUSE, 3 * DAY_MS, 4 * DAY_MS);

    assert!(
        warm_report.estimated_savings > cold_report.estimated_savings,
        "warm first-window savings {:.3} must strictly exceed cold {:.3}",
        warm_report.estimated_savings,
        cold_report.estimated_savings
    );
    assert!(
        warm_report.estimated_savings > 0.0,
        "warm restart keeps producing savings: {warm_report:?}"
    );
}

/// Two warehouses on one account, each with its own hourly query stream,
/// managed by `kwo` and optimized until five hours past onboarding.
fn two_warehouse_run(kwo: &mut Orchestrator) -> Simulator {
    const STREAMS: [(&str, WarehouseSize, f64, u64); 2] = [
        ("WH_A", WarehouseSize::Large, 30_000.0, 7),
        ("WH_B", WarehouseSize::Medium, 12_000.0, 23),
    ];
    let mut account = Account::new();
    let ids = STREAMS.map(|(name, size, ..)| {
        account.create_warehouse(
            name,
            WarehouseConfig::new(size).with_auto_suspend_secs(1800),
        )
    });
    let mut sim = Simulator::new(account);
    for h in 0..(2 * 24) {
        for (i, (_, _, work_ms, minute)) in STREAMS.into_iter().enumerate() {
            let id = i as u64 * 10_000 + h;
            let at = h * HOUR_MS + minute * MINUTE_MS;
            sim.submit_query(
                ids[i],
                QuerySpec::builder(id)
                    .work_ms_xs(work_ms)
                    .arrival_ms(at)
                    .build(),
            );
        }
    }
    for (name, ..) in STREAMS {
        kwo.manage(&sim, name, fast_setup());
    }
    kwo.observe_until(&mut sim, OBSERVE_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, OBSERVE_MS + 5 * HOUR_MS);
    sim
}

/// [`two_warehouse_run`] journaled to a store, control plane killed at the
/// end: the day-one snapshot (default cadence, 48 ticks) has landed and the
/// onboarding plus ten ticks per warehouse sit in the WAL on top of it.
fn two_warehouse_crash() -> (Simulator, MemStore) {
    let store = MemStore::new();
    let mut kwo = Orchestrator::new(5);
    kwo.attach_store(Box::new(store.clone()), 0);
    let sim = two_warehouse_run(&mut kwo);
    drop(kwo);
    (sim, store)
}

#[test]
fn restore_rebuilds_each_warehouses_telemetry_from_the_account() {
    let (mut sim, store) = two_warehouse_crash();
    let (mut restored, stats) = Orchestrator::restore(Box::new(store), &sim).expect("recovery");
    assert!(stats.snapshot_bytes > 0 && stats.replayed_records > 0);
    let mut twin = Orchestrator::new(5);
    let mut twin_sim = two_warehouse_run(&mut twin);

    for name in ["WH_A", "WH_B"] {
        let rebuilt = restored.optimizer(name).expect("managed").store();
        let live = twin.optimizer(name).expect("managed").store();
        assert!(!live.queries(name).is_empty());
        assert_eq!(rebuilt.queries(name), live.queries(name), "{name}");
        assert_eq!(
            rebuilt.total_queries(),
            rebuilt.queries(name).len(),
            "{name} holds its own partition only"
        );
    }
    restored.run_until(&mut sim, END_MS);
    twin.run_until(&mut twin_sim, END_MS);
    for name in ["WH_A", "WH_B"] {
        assert_eq!(
            restored.optimizer(name).expect("managed").actuator().log(),
            twin.optimizer(name).expect("managed").actuator().log(),
            "{name}"
        );
    }
    assert!(!twin.optimizers()[0].actuator().log().is_empty());
    assert_eq!(
        sim.account().ledger().total_with_overhead().to_bits(),
        twin_sim.account().ledger().total_with_overhead().to_bits()
    );
}

#[test]
fn a_restored_optimizer_has_taken_the_uninterrupted_runs_train_steps() {
    // Onboarding sits in the WAL: replay re-runs its episodes under the
    // recorded seed, and its ten ticks take no step.
    let (mut sim, store) = two_warehouse_crash();
    let (mut restored, _) = Orchestrator::restore(Box::new(store), &sim).expect("recovery");
    let mut twin = Orchestrator::new(5);
    let mut twin_sim = two_warehouse_run(&mut twin);
    let steps =
        |kwo: &Orchestrator, name: &str| kwo.optimizer(name).expect("managed").train_steps();
    for name in ["WH_A", "WH_B"] {
        assert!(steps(&twin, name) > 0, "{name}: onboarding trained");
        assert_eq!(steps(&restored, name), steps(&twin, name), "{name}");
    }
    restored.run_until(&mut sim, END_MS);
    twin.run_until(&mut twin_sim, END_MS);
    for name in ["WH_A", "WH_B"] {
        assert_eq!(steps(&restored, name), steps(&twin, name), "{name}");
    }
}

#[test]
fn snapshot_cursors_past_the_account_stream_are_corrupt() {
    // The snapshot's fetcher cursors index the account stream it was taken
    // against; a simulator whose stream is shorter is not that account.
    let (_, store) = two_warehouse_crash();
    let fresh_sim = {
        let mut account = Account::new();
        for name in ["WH_A", "WH_B"] {
            account.create_warehouse(name, WarehouseConfig::new(WarehouseSize::Small));
        }
        Simulator::new(account)
    };
    match Orchestrator::restore(Box::new(store), &fresh_sim) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("account stream"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|(_, stats)| stats)),
    }
}

#[test]
fn a_snapshot_whose_network_shapes_lie_is_corrupt_not_a_panic() {
    // A matrix's buffer carries its own count in the agent section, so
    // `rows x cols != data.len()` decodes fine; unchecked, the first tick
    // after the restore would index past the buffer. The agent's door
    // (`DqnAgent::from_bytes`) has to refuse it.
    let (sim, mut store) = two_warehouse_crash();
    let contents = store.load().expect("mem store loads");
    let mut snapshot = contents.snapshot.expect("the day-one snapshot landed");
    // The first layer's shape, as two little-endian words: 64 rows, 14 cols.
    let words = |rows: u64| [rows.to_le_bytes(), 14u64.to_le_bytes()].concat();
    let (honest, lie) = (words(64), words(65));
    let at = snapshot
        .windows(honest.len())
        .position(|w| w == honest)
        .expect("the first layer's weight matrix is in the first agent section");
    snapshot[at..at + lie.len()].copy_from_slice(&lie);
    match Orchestrator::restore(Box::new(store_of(&snapshot, &contents.records)), &sim) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("[(65, 14, Some(896), 64)"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|(_, stats)| stats)),
    }
}

/// A store holding `snapshot` and then `records` in its WAL.
fn store_of(snapshot: &[u8], records: &[Vec<u8>]) -> MemStore {
    let mut store = MemStore::new();
    store.write_snapshot(snapshot).expect("mem store writes");
    for record in records {
        store.append(record).expect("mem store appends");
    }
    store
}

#[test]
fn a_snapshot_that_names_a_warehouse_twice_is_corrupt() {
    // One optimizer per warehouse: a second copy of WH_A would restore as
    // a second control loop driving the same warehouse.
    let (sim, mut store) = two_warehouse_crash();
    let contents = store.load().expect("mem store loads");
    let snapshot = contents.snapshot.expect("the day-one snapshot landed");
    let mut snap = decode_snapshot(&snapshot).expect("decodes");
    assert_eq!(snap.optimizers[0].name, "WH_A");
    snap.optimizers.push(snap.optimizers[0].clone());
    snap.agents.push(snap.agents[0].clone());
    let twice = encode_snapshot(&snap).expect("encodes");
    match Orchestrator::restore(Box::new(store_of(&twice, &contents.records)), &sim) {
        Err(PersistError::Corrupt(msg)) => {
            assert_eq!(msg, "snapshot names warehouse WH_A twice")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|(_, stats)| stats)),
    }
}

/// What a configuration door answers: `Ok`, or the refusal's message.
type Verdict = Result<(), String>;

/// The simulator every door below is shown, fresh for each.
fn door_sim() -> Simulator {
    build_sim(0, 5).0
}

/// Restores `store` against a fresh `door_sim`. A restored control plane
/// observes, onboards and runs out one day, where a value no door checked
/// would panic.
fn restore_door(store: MemStore) -> Verdict {
    let mut sim = door_sim();
    match Orchestrator::restore(Box::new(store), &sim) {
        Err(e) => Err(e.to_string()),
        Ok((mut kwo, _)) => {
            kwo.observe_until(&mut sim, OBSERVE_MS / 2);
            kwo.onboard(&mut sim);
            kwo.run_until(&mut sim, OBSERVE_MS);
            let o = kwo.optimizer(WAREHOUSE).expect("restored the warehouse");
            assert!(o.onboarded() && o.train_steps() > 0);
            Ok(())
        }
    }
}

/// A snapshot of `WAREHOUSE` managed under `setup` from `original`.
fn snapshot_door(setup: &KwoSetup, original: &WarehouseConfig) -> Verdict {
    let sim = door_sim();
    let mut kwo = Orchestrator::new(11);
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    let mut store = MemStore::new();
    kwo.attach_store(Box::new(store.clone()), sim.now());
    let contents = store.load().expect("mem store loads");
    let mut snap = decode_snapshot(&contents.snapshot.expect("attach snapshots")).expect("decodes");
    snap.optimizers[0].setup = setup.clone();
    snap.optimizers[0].original_config = original.clone();
    restore_door(store_of(&encode_snapshot(&snap).expect("encodes"), &[]))
}

/// A snapshot-less WAL: genesis, then `records`.
fn wal_door(records: &[PersistRecord]) -> Verdict {
    let mut store = MemStore::new();
    let genesis = PersistRecord::Genesis { seed: 11, at: 0 };
    for record in std::iter::once(&genesis).chain(records) {
        store
            .append(&encode_record(record).expect("encodes"))
            .expect("mem store appends");
    }
    restore_door(store)
}

fn manage_record(setup: &KwoSetup, original: &WarehouseConfig) -> PersistRecord {
    PersistRecord::Manage {
        warehouse: WAREHOUSE.to_string(),
        original_config: original.clone(),
        setup: setup.clone(),
    }
}

/// `Orchestrator::add_constraint` on the managed warehouse and on one that
/// is not: the same verdict, and a refused rule is neither applied nor
/// journaled.
fn add_constraint_door(rule: &Rule) -> Verdict {
    let sim = door_sim();
    let mut kwo = Orchestrator::new(11);
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    let store = MemStore::new();
    kwo.attach_store(Box::new(store.clone()), sim.now());
    let unmanaged = kwo.add_constraint("NOPE", rule.clone());
    let verdict = kwo.add_constraint(WAREHOUSE, rule.clone());
    assert_eq!(unmanaged, verdict);
    let added = u64::from(verdict.is_ok());
    assert_eq!(store.wal_records(), added);
    let mut probe = MemStore::new();
    kwo.attach_store(Box::new(probe.clone()), sim.now());
    let snapshot = probe.load().expect("mem store loads").snapshot;
    let snap = decode_snapshot(&snapshot.expect("attach snapshots")).expect("decodes");
    let rules = snap.optimizers[0].setup.constraints.rules().len();
    assert_eq!(rules as u64, added);
    verdict.map_err(|e| e.to_string())
}

/// One table of bad configuration values, each refused with one message at
/// every door that can carry it: `try_manage`, `add_constraint`, snapshot
/// restore, and the replay of a WAL `Manage` or `ConstraintAdded` record.
/// A restore refuses as `Corrupt` and never panics. JSON has no `NaN`, so
/// a setup holding one reaches a snapshot body or a WAL record as `null`,
/// which restore refuses as a decode error before any check sees it. The
/// last row is a valid rule, which every door takes.
#[test]
fn bad_configuration_is_refused_with_one_message_at_every_door() {
    /// What a row sets wrong: the whole setup, its one rule, or the
    /// original configuration.
    enum Edit {
        Setup(KwoSetup),
        Rule(Rule),
        Original(WarehouseConfig),
    }
    let rule = |window| Rule::new("r", window, RuleEffect::NoSuspend);
    // The warehouse's own configuration, which a valid row keeps.
    let (sim, wh) = build_sim(0, 5);
    let large = sim.account().describe(wh).config;
    let never_ticks = KwoSetup {
        realtime_interval_ms: 0,
        ..fast_setup()
    };
    let rows = [
        (
            Edit::Setup(never_ticks),
            Some("realtime_interval_ms must be > 0"),
        ),
        (
            Edit::Rule(rule(TimeWindow::daily(f64::NAN, 6.0))),
            Some("rule `r`: hours NaN..6 are not within [0, 24]"),
        ),
        (
            Edit::Rule(rule(TimeWindow::daily(9.0, 25.0))),
            Some("rule `r`: hours 9..25 are not within [0, 24]"),
        ),
        (
            Edit::Rule(rule(TimeWindow::always().on_days(vec![7]))),
            Some("rule `r`: weekday 7 is above 6"),
        ),
        (
            Edit::Rule(rule(TimeWindow::always().on_days(vec![]))),
            Some("rule `r`: its day list is empty"),
        ),
        (
            Edit::Original(large.clone().with_clusters(0, 1)),
            Some("original config: min_clusters must be at least 1"),
        ),
        (
            Edit::Original(large.clone().with_clusters(3, 2)),
            Some("original config: max_clusters (2) < min_clusters (3)"),
        ),
        (Edit::Rule(rule(TimeWindow::daily(22.0, 6.0))), None),
    ];
    for (edit, refusal) in rows {
        let (setup, original, rule) = match edit {
            Edit::Setup(setup) => (setup, None, None),
            Edit::Rule(rule) => {
                let constraints = keebo::ConstraintSet::new().with_rule(rule.clone());
                let setup = KwoSetup {
                    constraints,
                    ..fast_setup()
                };
                (setup, None, Some(rule))
            }
            Edit::Original(original) => (fast_setup(), Some(original), None),
        };
        let json = serde_json::to_string(&setup).expect("encodes");
        let travels = serde_json::from_str::<KwoSetup>(&json).is_ok();
        let original_or_own = original.as_ref().unwrap_or(&large);
        let mut verdicts = vec![
            ("snapshot restore", snapshot_door(&setup, original_or_own)),
            (
                "WAL Manage replay",
                wal_door(&[manage_record(&setup, original_or_own)]),
            ),
        ];
        if original.is_none() {
            // Live, the original configuration is the warehouse's own.
            let sim = door_sim();
            let mut kwo = Orchestrator::new(11);
            let verdict = kwo.try_manage(&sim, WAREHOUSE, setup.clone());
            assert_eq!(kwo.optimizers().len(), usize::from(verdict.is_ok()));
            verdicts.push(("try_manage", verdict.map_err(|e| e.to_string())));
        }
        if let Some(rule) = rule {
            verdicts.push(("add_constraint", add_constraint_door(&rule)));
            let added = PersistRecord::ConstraintAdded {
                warehouse: WAREHOUSE.to_string(),
                rule,
            };
            let records = [manage_record(&fast_setup(), &large), added];
            verdicts.push(("WAL ConstraintAdded replay", wal_door(&records)));
        }
        for (door, verdict) in verdicts {
            let Some(why) = refusal else {
                assert_eq!(verdict, Ok(()), "{door}");
                continue;
            };
            // Live doors refuse as `ManageError::InvalidSetup`; restore
            // refuses as `Corrupt`, or as a decode error for a value JSON
            // cannot hold.
            let (head, tail) = match door {
                "try_manage" | "add_constraint" => ("invalid setup: ", why),
                _ if !travels => ("state decode error: ", ""),
                _ => ("persisted state corrupt: ", why),
            };
            assert!(
                verdict
                    .as_ref()
                    .is_err_and(|m| m.starts_with(head) && m.contains(tail)),
                "{door}: {verdict:?} is not a refusal with {why:?}"
            );
        }
    }
}

#[test]
fn a_tick_record_naming_an_unmanaged_warehouse_is_refused() {
    // A tick's log entries carry no name: they restore as the entries of
    // the warehouse the tick names, so a tick naming an unmanaged warehouse
    // is refused at replay.
    let (sim, mut store) = two_warehouse_crash();
    let contents = store.load().expect("mem store loads");
    let snapshot = contents.snapshot.expect("the day-one snapshot landed");
    let mut records = contents.records;
    let edited = records.iter_mut().any(|bytes| {
        let Ok(PersistRecord::Tick {
            warehouse,
            now,
            effects,
            log_delta,
            ctl,
        }) = decode_record(bytes)
        else {
            return false;
        };
        if warehouse != "WH_A" || log_delta.is_empty() {
            return false;
        }
        let record = PersistRecord::Tick {
            warehouse: "WH_C".to_string(),
            now,
            effects,
            log_delta,
            ctl,
        };
        *bytes = encode_record(&record).expect("a tick encodes");
        true
    });
    assert!(edited, "a WH_A tick in the WAL logged an action");
    match Orchestrator::restore(Box::new(store_of(&snapshot, &records)), &sim) {
        Err(PersistError::Corrupt(msg)) => {
            assert_eq!(msg, "tick record for unmanaged warehouse WH_C")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|(_, stats)| stats)),
    }
}

#[test]
fn every_persisted_record_re_encodes_byte_identically() {
    // A real run exercising every record variant, captured via MemStore.
    let seed = 31;
    let (mut sim, _wh) = build_sim(0, seed);
    let store = MemStore::new();
    let mut kwo = Orchestrator::new(seed);
    kwo.attach_store(Box::new(store.clone()), sim.now());
    kwo.set_snapshot_interval(1_000);
    kwo.manage(&sim, WAREHOUSE, fast_setup());
    kwo.observe_until(&mut sim, OBSERVE_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, OBSERVE_MS + 6 * TICK_MS);
    kwo.set_slider(WAREHOUSE, SliderPosition::LowestCost);
    let nights = Rule::new(
        "nights",
        TimeWindow::daily(20.0, 23.0),
        RuleEffect::NoSuspend,
    );
    assert_eq!(kwo.add_constraint(WAREHOUSE, nights), Ok(()));
    kwo.admin_resume(&sim, WAREHOUSE);
    kwo.run_until(&mut sim, OBSERVE_MS + 8 * TICK_MS);
    drop(kwo);

    let mut boxed: Box<dyn StateStore> = Box::new(store);
    let contents = boxed.load().expect("load");
    let mut seen = [false; 6];
    for bytes in &contents.records {
        let record = decode_record(bytes).expect("every persisted record decodes");
        seen[match record {
            PersistRecord::Genesis { .. } => 0,
            PersistRecord::Manage { .. } => 1,
            PersistRecord::Tick { .. } => 2,
            PersistRecord::SliderChanged { .. } => 3,
            PersistRecord::AdminResume { .. } => 4,
            PersistRecord::ConstraintAdded { .. } => 5,
        }] = true;
        let re = encode_record(&record).expect("re-encode");
        assert_eq!(&re, bytes, "record round trip must be byte-identical");
        // A tick journals state only: its bytes are its name, time, effects
        // and new log entries, then the control state and nothing more. The
        // slider is `SliderChanged`'s and fixed tuning is no field, so
        // neither is reachable from a decoded tick.
        if let PersistRecord::Tick {
            warehouse,
            effects,
            ctl,
            ..
        } = record
        {
            assert!(bytes.starts_with(&keebo::persist::TICK_MAGIC));
            let mut tail = Vec::new();
            keebo::persist::encode_ctl(&ctl, &mut tail);
            assert!(bytes.ends_with(&tail), "a tick ends with its control state");
            let head = 4 + 8 + warehouse.len() + 8 + 1;
            let retrain = effects
                .retrain
                .map_or(1, |rt| 1 + 8 + 1 + 8 * rt.seed.iter().len());
            let arrivals = 1 + 8 * effects.arrivals.iter().len();
            let log = &bytes[head + retrain + arrivals..bytes.len() - tail.len()];
            assert_eq!(keebo::actuator::decode_log(log).map(|_| ()), Ok(()));
        }
    }
    // The genesis record is compacted away by attach_store's immediate
    // snapshot here (a MemStore never fails the write), so round-trip it
    // synthetically.
    let genesis = PersistRecord::Genesis { seed, at: 0 };
    let bytes = encode_record(&genesis).expect("encode genesis");
    let re =
        encode_record(&decode_record(&bytes).expect("decode genesis")).expect("re-encode genesis");
    assert_eq!(re, bytes, "genesis round trip must be byte-identical");
    seen[0] = true;
    assert_eq!(seen, [true; 6], "all six record variants were exercised");

    let snap_bytes = contents.snapshot.expect("attach_store wrote a snapshot");
    let snap = decode_snapshot(&snap_bytes).expect("snapshot decodes");
    let re = encode_snapshot(&snap).expect("re-encode snapshot");
    assert_eq!(re, snap_bytes, "snapshot round trip must be byte-identical");
}

/// The frame scanner and both persisted-state decoders are total:
/// arbitrary input bytes yield a value or an error, never a panic.
#[test]
fn decoders_are_total_on_arbitrary_bytes() {
    assert!(decode_record(&[]).is_err(), "empty input is no record");
    assert!(decode_snapshot(&[]).is_err(), "empty input is no snapshot");
    // Raw byte soup of many lengths.
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let bytes: Vec<u8> = (0..rng.gen_range(0..600))
            .map(|_| rng.gen_range(0..=u8::MAX))
            .collect();
        let scan = scan_frames(&bytes);
        assert!(
            scan.valid_bytes <= bytes.len(),
            "case {case}: {} valid bytes in a {}-byte input",
            scan.valid_bytes,
            bytes.len()
        );
        let _ = decode_record(&bytes);
        let _ = decode_record(&[&keebo::persist::TICK_MAGIC[..], &bytes].concat());
        let _ = decode_snapshot(&bytes);
    }
    // Mutations of a valid encoding: every single-byte corruption must
    // decode to Ok or Err, never panic.
    let valid = encode_record(&PersistRecord::SliderChanged {
        warehouse: "WH".to_string(),
        slider: SliderPosition::Balanced,
    })
    .expect("encode");
    for i in 0..valid.len() {
        let mut mutated = valid.clone();
        mutated[i] ^= 0x5A;
        let _ = decode_record(&mutated);
        let _ = decode_snapshot(&mutated);
        let scan = scan_frames(&mutated);
        assert!(scan.valid_bytes <= mutated.len(), "byte {i} mutated");
    }
}

/// The small persisted types round trip through serde for any field values,
/// and the deterministic RNG does so mid-stream: serialize after any number
/// of draws, deserialize, and the streams stay identical.
#[test]
fn simple_persisted_types_round_trip() {
    for case in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(case);

        let mut det = DetRng::seed_from_u64(rng.gen());
        let draws = rng.gen_range(0..64);
        for _ in 0..draws {
            det.gen::<u64>();
        }
        let mut bytes = Vec::new();
        det.write_le(&mut bytes);
        let mut back = DetRng::read_le(&mut nn::le::Reader::new(&bytes)).expect("decode DetRng");
        assert_eq!(det, back, "case {case}: after {draws} draws");
        assert_eq!(
            det.gen::<u64>(),
            back.gen::<u64>(),
            "case {case}: streams diverge after {draws} draws"
        );

        let replayed: u64 = rng.gen();
        let stats = RecoveryStats {
            replayed_records: replayed,
            wal_truncated_bytes: replayed / 3,
            snapshot_bytes: replayed / 7,
            recovery_wall_ms: replayed as f64 * 0.25,
        };
        let json = serde_json::to_string(&stats).expect("encode RecoveryStats");
        let back: RecoveryStats = serde_json::from_str(&json).expect("decode RecoveryStats");
        assert_eq!(stats, back, "case {case}");
    }
}

/// Unique scratch dir per test (integration tests run in parallel).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kwo-recovery-{}-{tag}-{n}", std::process::id()))
}
