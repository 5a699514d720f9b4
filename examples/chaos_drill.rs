//! Chaos drill: run KWO through a gauntlet of injected control-plane faults.
//!
//! Schedules ALTER failure bursts, a six-hour telemetry outage, partial
//! telemetry batches, slow resumes, and delayed command application against
//! a managed BI warehouse, then prints what the resilient control plane did
//! about it: retries, reconciliations, rollbacks, health transitions, and
//! the savings that survived.
//!
//! Run with: `cargo run --release --example chaos_drill`

#![allow(clippy::expect_used)]

use cdw_sim::{
    Account, FaultPlan, Simulator, WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS,
};
use keebo::{generate_trace, KwoSetup, OpsKpis, Orchestrator};
use workload::BiWorkload;

fn main() {
    // 1. The fault schedule: every window opens after onboarding (day 5) so
    //    the learned policy is already live when the control plane starts
    //    misbehaving.
    let plan = FaultPlan::none()
        .with_alter_burst(6 * DAY_MS, 7 * DAY_MS, 0.9)
        .with_throttle(7 * DAY_MS, 7 * DAY_MS + 6 * HOUR_MS, 0.5)
        .with_telemetry_outage(8 * DAY_MS, 8 * DAY_MS + 6 * HOUR_MS)
        .with_partial_telemetry(9 * DAY_MS, 9 * DAY_MS + 3 * HOUR_MS, 0.5)
        .with_slow_resumes(10 * DAY_MS, 10 * DAY_MS + 6 * HOUR_MS, 120_000, 0.5)
        .with_delayed_alters(11 * DAY_MS, 11 * DAY_MS + 3 * HOUR_MS, 20 * MINUTE_MS, 0.5);

    // 2. An oversized BI warehouse with two weeks of dashboard traffic, on a
    //    simulator that realizes the plan with its own fault seed.
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "BI_WH",
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
    );
    let mut sim = Simulator::with_faults(account, plan, 7);
    for q in generate_trace(&BiWorkload::default(), 0, 14 * DAY_MS, 42) {
        sim.submit_query(wh, q);
    }

    // 3. Attach KWO: observe five days, onboard, optimize through day 14.
    let mut kwo = Orchestrator::new(42);
    kwo.manage(
        &sim,
        "BI_WH",
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 3,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, 5 * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 14 * DAY_MS);

    // 4. What the injector actually did.
    let stats = sim.fault_stats();
    println!("-- injected faults ------------------------------------------");
    println!("ALTER failures:          {:>6}", stats.alter_failures);
    println!("ALTER applications late: {:>6}", stats.alter_delays);
    println!("telemetry outages:       {:>6}", stats.telemetry_outages);
    println!("telemetry partials:      {:>6}", stats.telemetry_partials);
    println!("slow resumes:            {:>6}", stats.slow_resumes);

    // 5. How the control plane responded.
    let o = kwo.optimizer("BI_WH").expect("managed warehouse");
    let kpis = OpsKpis::collect(o, sim.now());
    println!("-- control plane --------------------------------------------");
    println!("final health:            {:?}", kpis.health);
    println!(
        "ticks healthy/degraded/frozen: {}/{}/{}",
        kpis.healthy_ticks, kpis.degraded_ticks, kpis.frozen_ticks
    );
    println!("actions applied:         {:>6}", kpis.actions_applied);
    println!("actions failed:          {:>6}", kpis.actions_failed);
    println!("in-line transient retries: {:>4}", kpis.transient_retries);
    println!("reconciliations:         {:>6}", kpis.reconciliations);
    println!("rollbacks:               {:>6}", kpis.rollbacks);
    println!(
        "fetch outages/partials:  {:>6}/{}",
        kpis.fetch_outages, kpis.fetch_partials
    );

    // 6. Savings survive the chaos.
    let report = kwo.savings_report(&sim, "BI_WH", 5 * DAY_MS, 14 * DAY_MS);
    println!("-- outcome --------------------------------------------------");
    println!(
        "estimated without Keebo: {:>8.1} credits",
        report.estimated_without_keebo
    );
    println!(
        "actual with Keebo:       {:>8.1} credits",
        report.actual_with_keebo
    );
    println!(
        "estimated savings:       {:>8.1} credits ({:.0}%)",
        report.estimated_savings,
        report.savings_fraction * 100.0
    );
    let desc = sim.account().describe(wh);
    println!(
        "final config: {:?}, auto-suspend {}s, clusters {}..{}",
        desc.config.size,
        desc.config.auto_suspend_ms / 1_000,
        desc.config.min_clusters,
        desc.config.max_clusters
    );
}
