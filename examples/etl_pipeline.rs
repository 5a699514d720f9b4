//! ETL scenario: a recurring pipeline warehouse where KWO must respect an
//! SLA-like constraint (the paper's C2: "a slowdown of an ETL job might
//! cause SLA violations") while still cutting idle cost.
//!
//! Shows the overhead accounting of §7.3: telemetry fetches and actuator
//! commands cost credits too, and they must stay negligible.
//!
//! Run with: `cargo run --release --example etl_pipeline`

#![allow(clippy::unwrap_used)]

use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS};
use keebo::{
    generate_trace, ConstraintSet, KwoSetup, Orchestrator, Rule, RuleEffect, SliderPosition,
    TimeWindow,
};
use workload::EtlWorkload;

fn main() {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "ETL_WH",
        WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
    );
    let mut sim = Simulator::new(account);
    for q in generate_trace(&EtlWorkload::default(), 0, 8 * DAY_MS, 3) {
        sim.submit_query(wh, q);
    }

    // The nightly load window (2:00–6:00) must never be downsized, and the
    // warehouse must never suspend during it: ETL SLAs beat savings.
    let constraints = ConstraintSet::new()
        .with_rule(Rule::new(
            "protect-nightly-load-size",
            TimeWindow::daily(2.0, 6.0),
            RuleEffect::NoDownsize,
        ))
        .with_rule(Rule::new(
            "protect-nightly-load-uptime",
            TimeWindow::daily(2.0, 6.0),
            RuleEffect::NoSuspend,
        ));

    let mut kwo = Orchestrator::new(11);
    kwo.manage(
        &sim,
        "ETL_WH",
        KwoSetup {
            // ETL tolerates some queueing; prioritize cost a notch.
            slider: SliderPosition::LowCost,
            constraints,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, 4 * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 8 * DAY_MS);

    let report = kwo.savings_report(&sim, "ETL_WH", 4 * DAY_MS, 8 * DAY_MS);
    println!(
        "optimized 4 days: {:.1} credits actual vs {:.1} estimated without Keebo ({:.0}% saved)",
        report.actual_with_keebo,
        report.estimated_without_keebo,
        report.savings_fraction * 100.0
    );

    // Overhead accounting (§7.3): KWO's own telemetry + actuation cost.
    let overhead = sim.account().ledger().overhead().total();
    println!(
        "KWO overhead: {:.3} credits ({:.2}% of actual usage) — must be negligible",
        overhead,
        100.0 * overhead / report.actual_with_keebo.max(1e-9)
    );

    // Every action KWO took, as SQL.
    let o = kwo.optimizer("ETL_WH").unwrap();
    println!("\nfirst few actions:");
    for entry in o
        .actuator()
        .log()
        .iter()
        .filter(|e| !e.commands.is_empty())
        .take(5)
    {
        println!(
            "  day {:.1} [{}] {}",
            entry.at as f64 / DAY_MS as f64,
            entry.reason,
            entry.sql(o.name()).collect::<Vec<_>>().join("; ")
        );
    }
}
