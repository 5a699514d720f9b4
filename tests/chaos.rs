//! Chaos suite: the fault-injection layer driving the resilient control
//! plane end to end.
//!
//! Three contracts are pinned here:
//!
//! 1. an empty `FaultPlan` is bit-identical to a simulator built without an
//!    injector at all (the injector must never consult its RNG);
//! 2. a `(workload seed, fault seed, plan)` triple fully reproduces a run —
//!    action log, billing, final config, and fault stats;
//! 3. a 14-day run through overlapping fault windows (ALTER bursts,
//!    throttling, a 6 h telemetry outage, partial batches, slow resumes,
//!    delayed command application) finishes with the reconciler converged,
//!    a valid warehouse config, and positive — if reduced — savings;
//! 4. the `OpsKpis` reliability counters (degraded ticks, fetch outages,
//!    transient retries, ...) survive a mid-scenario orchestrator rebuild
//!    from the durable store — a crash must not zero the ops history;
//! 5. the 14-day run's action log, rendered one line an entry, hashes to
//!    the value it had while entries stored their SQL, outcome and kind.

#![allow(clippy::unwrap_used)]

use cdw_sim::{
    Account, FaultPlan, Simulator, WarehouseConfig, WarehouseId, WarehouseSize, DAY_MS, HOUR_MS,
    MINUTE_MS,
};
use keebo::{
    generate_trace, ActionLogEntry, ActionOutcome, CommandStatus, HealthState, KwoSetup, MemStore,
    OpsKpis, Orchestrator,
};
use std::fmt::Write as _;
use workload::BiWorkload;

const WAREHOUSE: &str = "BI_WH";

struct Run {
    sim: Simulator,
    kwo: Orchestrator,
    wh: WarehouseId,
}

/// Builds the standard chaos scenario: an oversized BI warehouse managed by
/// KWO, observed for `observe_days` and optimized through `total_days`, on a
/// simulator produced by `build_sim` (with or without an injector).
fn run_kwo(
    build_sim: impl FnOnce(Account) -> Simulator,
    total_days: u64,
    observe_days: u64,
    seed: u64,
) -> Run {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        WAREHOUSE,
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
    );
    let mut sim = build_sim(account);
    for q in generate_trace(&BiWorkload::default(), 0, total_days * DAY_MS, seed) {
        sim.submit_query(wh, q);
    }
    let mut kwo = Orchestrator::new(seed);
    kwo.manage(
        &sim,
        WAREHOUSE,
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 3,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, observe_days * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, total_days * DAY_MS);
    Run { sim, kwo, wh }
}

/// Everything that must be identical between two reproducible runs.
fn fingerprint(run: &Run) -> String {
    let o = run.kwo.optimizer(WAREHOUSE).unwrap();
    format!(
        "log={:?} billed={:.9} config={:?} faults={:?}",
        o.actuator().log(),
        run.sim.account().ledger().warehouse(WAREHOUSE).total(),
        run.sim.account().describe(run.wh).config,
        run.sim.fault_stats(),
    )
}

/// The log as the portal reads it, one line an entry:
/// `at|action|reason|kind|outcome|` and then `sql|status|attempts|` for
/// each command, a failure as `Failed: {error}`.
fn render_log(log: &[ActionLogEntry]) -> String {
    let mut out = String::new();
    for e in log {
        let outcome = match e.outcome() {
            ActionOutcome::Failed(error) => format!("Failed: {error}"),
            other => format!("{other:?}"),
        };
        let (at, action, reason, kind) = (e.at, e.action, e.reason, e.kind());
        write!(out, "{at}|{action:?}|{reason}|{kind:?}|{outcome}|").unwrap();
        for (sql, c) in e.sql(WAREHOUSE).zip(&e.commands) {
            let status = match &c.status {
                CommandStatus::Failed(error) => format!("Failed: {error}"),
                other => format!("{other:?}"),
            };
            write!(out, "{sql}|{status}|{}|", c.attempts).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn zero_fault_plan_is_bit_identical_to_the_plain_simulator() {
    let plain = run_kwo(Simulator::new, 7, 3, 41);
    let empty = run_kwo(
        |account| Simulator::with_faults(account, FaultPlan::none(), 999),
        7,
        3,
        41,
    );
    assert_eq!(fingerprint(&plain), fingerprint(&empty));
    // The savings report — the user-facing number — is byte-identical too.
    let a = plain
        .kwo
        .savings_report(&plain.sim, WAREHOUSE, 3 * DAY_MS, 7 * DAY_MS);
    let b = empty
        .kwo
        .savings_report(&empty.sim, WAREHOUSE, 3 * DAY_MS, 7 * DAY_MS);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn same_seed_and_fault_plan_reproduce_the_same_run() {
    let plan = || {
        FaultPlan::none()
            .with_alter_burst(4 * DAY_MS, 4 * DAY_MS + 12 * HOUR_MS, 0.7)
            .with_telemetry_outage(5 * DAY_MS, 5 * DAY_MS + 4 * HOUR_MS)
            .with_slow_resumes(6 * DAY_MS, 6 * DAY_MS + 6 * HOUR_MS, 120_000, 0.5)
    };
    let go = || {
        run_kwo(
            |account| Simulator::with_faults(account, plan(), 7),
            8,
            3,
            41,
        )
    };
    assert_eq!(fingerprint(&go()), fingerprint(&go()));
}

#[test]
fn ops_kpis_survive_a_mid_scenario_rebuild() {
    const TOTAL: u64 = 12;
    const OBSERVE: u64 = 5;
    // Tick-aligned kill between fault windows: after the telemetry outage
    // (day 8–8.25) has inflated the reliability counters, before the slow
    // resumes of day 10.
    const CRASH_MS: u64 = 9 * DAY_MS + 5 * HOUR_MS;
    let plan = || {
        FaultPlan::none()
            .with_alter_burst(6 * DAY_MS, 7 * DAY_MS, 0.9)
            .with_telemetry_outage(8 * DAY_MS, 8 * DAY_MS + 6 * HOUR_MS)
            .with_slow_resumes(10 * DAY_MS, 10 * DAY_MS + 6 * HOUR_MS, 120_000, 0.5)
    };

    // Uninterrupted reference.
    let baseline = run_kwo(
        |account| Simulator::with_faults(account, plan(), 7),
        TOTAL,
        OBSERVE,
        41,
    );
    let baseline_kpis = OpsKpis::collect(
        baseline.kwo.optimizer(WAREHOUSE).unwrap(),
        baseline.sim.now(),
    );

    // Same scenario, but the control plane journals to a store, dies at
    // CRASH_MS, and is rebuilt from the snapshot + WAL.
    let mut account = Account::new();
    let wh = account.create_warehouse(
        WAREHOUSE,
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
    );
    let mut sim = Simulator::with_faults(account, plan(), 7);
    for q in generate_trace(&BiWorkload::default(), 0, TOTAL * DAY_MS, 41) {
        sim.submit_query(wh, q);
    }
    let store = MemStore::new();
    let mut kwo = Orchestrator::new(41);
    kwo.attach_store(Box::new(store.clone()), sim.now());
    kwo.manage(
        &sim,
        WAREHOUSE,
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 3,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, OBSERVE * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, CRASH_MS);
    drop(kwo);

    let (mut kwo, stats) = Orchestrator::restore(Box::new(store), &sim).expect("rebuild");
    assert!(stats.replayed_records > 0, "rebuild replayed WAL records");
    kwo.run_until(&mut sim, TOTAL * DAY_MS);

    let o = kwo.optimizer(WAREHOUSE).unwrap();
    let kpis = OpsKpis::collect(o, sim.now());
    // The pre-crash ops history is still there — a rebuild must not zero
    // the reliability counters the faults inflated before the kill...
    assert!(kpis.fetch_outages > 0, "outage count lost: {kpis:?}");
    assert!(kpis.degraded_ticks > 0, "degraded ticks lost: {kpis:?}");
    // ...and the full KPI snapshot matches the uninterrupted run exactly,
    // counters and health trajectory both.
    assert_eq!(
        format!("{kpis:?}"),
        format!("{baseline_kpis:?}"),
        "reliability KPIs diverged across the rebuild"
    );
    assert_eq!(
        fingerprint(&Run { sim, kwo, wh }),
        fingerprint(&baseline),
        "decision log / billing diverged across the rebuild"
    );
}

#[test]
fn fourteen_day_chaos_run_converges_and_still_saves() {
    const TOTAL: u64 = 14;
    const OBSERVE: u64 = 5;
    // All windows open after onboarding so both runs share the same
    // observation phase.
    let plan = FaultPlan::none()
        .with_alter_burst(6 * DAY_MS, 7 * DAY_MS, 0.9)
        .with_throttle(7 * DAY_MS, 7 * DAY_MS + 6 * HOUR_MS, 0.5)
        .with_telemetry_outage(8 * DAY_MS, 8 * DAY_MS + 6 * HOUR_MS)
        .with_partial_telemetry(9 * DAY_MS, 9 * DAY_MS + 3 * HOUR_MS, 0.5)
        .with_slow_resumes(10 * DAY_MS, 10 * DAY_MS + 6 * HOUR_MS, 120_000, 0.5)
        .with_delayed_alters(11 * DAY_MS, 11 * DAY_MS + 3 * HOUR_MS, 20 * MINUTE_MS, 0.5);

    let clean = run_kwo(Simulator::new, TOTAL, OBSERVE, 41);
    let faulted = run_kwo(
        |account| Simulator::with_faults(account, plan, 7),
        TOTAL,
        OBSERVE,
        41,
    );

    // The injector actually fired.
    let stats = faulted.sim.fault_stats();
    assert!(stats.alter_failures > 0, "no ALTER faults fired: {stats:?}");
    assert!(stats.telemetry_outages > 0, "no outages fired: {stats:?}");

    // The control plane felt it and recovered: time was spent degraded, yet
    // by the end of the run health is back to Healthy and the reconciler has
    // no outstanding drift or failure streak.
    let o = faulted.kwo.optimizer(WAREHOUSE).unwrap();
    let kpis = OpsKpis::collect(o, faulted.sim.now());
    assert!(kpis.degraded_ticks > 0, "never degraded: {kpis:?}");
    assert!(kpis.fetch_outages > 0, "fetcher never saw the outage");
    assert_eq!(
        kpis.health,
        HealthState::Healthy,
        "did not recover: {kpis:?}"
    );
    assert_eq!(o.reconciler().consecutive_failures(), 0);

    // 404 entries, with failed ALTERs, in-line retries, back-off steps,
    // rollbacks and reconciles among them (no command was skipped in this
    // run). FNV-1a of the rendering, re-pinned once when live ticks stopped
    // taking a DQN train step (EXPERIMENTS.md, "Re-pin ledger"); the
    // rendering itself is the one every entry had when it stored its SQL,
    // outcome and kind.
    assert!(kpis.actions_failed > 0 && kpis.transient_retries > 0);
    assert!(kpis.rollbacks > 0 && kpis.reconciliations > 0);
    let rendered = render_log(o.actuator().log());
    assert_eq!(rendered.lines().count(), 404);
    let hash = telemetry::hash_query_text(&rendered);
    assert_eq!(hash, 0x2454_db12_c23a_ca80, "the rendered log moved");

    // No constraint violations: the warehouse ends in a valid configuration.
    let final_config = faulted.sim.account().describe(faulted.wh).config;
    final_config.validate().expect("final config must be valid");

    // Savings survive the chaos: positive, but no better than fault-free
    // (faults can only cost money — failed downsizes, slow resumes, blind
    // degraded ticks). Allow 10% tolerance for decision-path divergence.
    let clean_savings = clean
        .kwo
        .savings_report(&clean.sim, WAREHOUSE, OBSERVE * DAY_MS, TOTAL * DAY_MS)
        .estimated_savings;
    let faulted_savings = faulted
        .kwo
        .savings_report(&faulted.sim, WAREHOUSE, OBSERVE * DAY_MS, TOTAL * DAY_MS)
        .estimated_savings;
    assert!(
        faulted_savings > 0.0,
        "chaos run must still save credits, got {faulted_savings:.2}"
    );
    assert!(
        faulted_savings <= clean_savings * 1.1,
        "faults should not increase savings: faulted {faulted_savings:.2} vs clean {clean_savings:.2}"
    );
}
