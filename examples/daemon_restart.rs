//! Daemon restart: the control plane survives its own death.
//!
//! A KWO deployment is a long-lived daemon; hosts reboot, binaries upgrade,
//! processes get OOM-killed. This example runs the two-week BI scenario with
//! a [`FileStore`] attached, kills the orchestrator at day 7 of the
//! optimized fortnight (dropping every in-memory structure — DQN weights,
//! replay buffer, reconciler state, billing cursors), then warm-restores a
//! fresh process from the on-disk snapshot + WAL and finishes the run.
//!
//! Two properties are demonstrated:
//!
//! * **no re-onboarding** — the restored orchestrator is immediately
//!   `onboarded()`: the learned policy came back from disk, so the restart
//!   costs zero exploration episodes and zero blind ticks;
//! * **continuous savings** — the savings report spans the crash as if it
//!   never happened, because the restored baseline config and billing
//!   cursors are the pre-crash ones.
//!
//! Run with: `cargo run --release --example daemon_restart`

#![allow(clippy::expect_used)]

use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS, MINUTE_MS};
use keebo::{generate_trace, FileStore, KwoSetup, Orchestrator};
use workload::BiWorkload;

const OBSERVE_MS: u64 = 7 * DAY_MS;
const CRASH_MS: u64 = 14 * DAY_MS;
const END_MS: u64 = 21 * DAY_MS;

fn main() {
    let dir = std::env::temp_dir().join(format!("kwo_daemon_restart_{}", std::process::id()));

    // 1. One oversized BI warehouse with three weeks of dashboard traffic.
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "BI_WH",
        WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(1, 2),
    );
    let mut sim = Simulator::new(account);
    for q in generate_trace(&BiWorkload::default(), 0, END_MS, 42) {
        sim.submit_query(wh, q);
    }

    // 2. Day 0-7: observe and onboard, journaling every mutation to disk.
    let store = FileStore::open(&dir).expect("open durable store");
    let mut kwo = Orchestrator::new(42);
    kwo.attach_store(Box::new(store), sim.now());
    kwo.manage(
        &sim,
        "BI_WH",
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 2,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, OBSERVE_MS);
    kwo.onboard(&mut sim);

    // 3. Day 7-14: optimize, then the daemon dies. `drop` discards the
    //    whole control plane; only the files under `dir` survive.
    kwo.run_until(&mut sim, CRASH_MS);
    let week_one = kwo
        .savings_report(&sim, "BI_WH", OBSERVE_MS, CRASH_MS)
        .estimated_savings;
    drop(kwo);
    println!("day 14: daemon killed ({week_one:.1} credits saved so far)");

    // 4. A fresh process finds the store and warm-restores: snapshot first,
    //    then WAL replay on top.
    let store = FileStore::open(&dir).expect("reopen durable store");
    let (mut kwo, stats) = Orchestrator::restore(Box::new(store), &sim).expect("warm restore");
    println!(
        "day 14: warm restore replayed {} WAL records on a {} byte snapshot ({} torn bytes)",
        stats.replayed_records, stats.snapshot_bytes, stats.wal_truncated_bytes
    );
    // Wall time goes to stderr: it is the one non-deterministic figure, and
    // keeping stdout byte-identical across runs preserves the free
    // determinism probe (`diff` two runs).
    eprintln!("(restore wall time: {:.1} ms)", stats.recovery_wall_ms);

    // No re-onboarding: the learned policy is already live.
    assert!(
        kwo.optimizer("BI_WH").expect("managed").onboarded(),
        "restored orchestrator must not need re-onboarding"
    );
    println!("day 14: onboarded() = true — zero exploration episodes after restart");

    // 5. Day 14-21: keep optimizing as if nothing happened.
    kwo.run_until(&mut sim, END_MS);
    let report = kwo.savings_report(&sim, "BI_WH", OBSERVE_MS, END_MS);
    assert!(
        report.estimated_savings > week_one,
        "savings must keep accruing across the restart"
    );
    println!(
        "day 21: continuous savings {:.1} credits ({:.0}%) across the crash — \
         week two added {:.1}",
        report.estimated_savings,
        report.savings_fraction * 100.0,
        report.estimated_savings - week_one
    );

    let _ = std::fs::remove_dir_all(&dir);
}
