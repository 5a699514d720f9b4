//! Customer constraints in action (§4.1 Fig. 3, §4.3) — including
//! external-change detection (§4.4).
//!
//! Demonstrates:
//! * a time-windowed rule ("from 9:00 to 9:30 the BI warehouse must have a
//!   minimum of 3 clusters and must not downsize" — the paper's example);
//! * that KWO's actions never violate the rule;
//! * that an external `ALTER WAREHOUSE` pauses optimization until the admin
//!   resumes it.
//!
//! Run with: `cargo run --release --example constraints`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use cdw_sim::{
    Account, ActionSource, Simulator, WarehouseCommand, WarehouseConfig, WarehouseSize, DAY_MS,
    HOUR_MS,
};
use keebo::{generate_trace, ConstraintSet, KwoSetup, Orchestrator, Rule, RuleEffect, TimeWindow};
use workload::BiWorkload;

fn main() {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "BI_WH",
        WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(3, 5),
    );
    let mut sim = Simulator::new(account);
    for q in generate_trace(&BiWorkload::default(), 0, 6 * DAY_MS, 21) {
        sim.submit_query(wh, q);
    }

    // The paper's example rule, verbatim: 9:00–9:30, keep >= 3 clusters and
    // never downsize.
    let constraints = ConstraintSet::new()
        .with_rule(Rule::new(
            "morning-rush-clusters",
            TimeWindow::daily(9.0, 9.5),
            RuleEffect::MinClusters(3),
        ))
        .with_rule(Rule::new(
            "morning-rush-size",
            TimeWindow::daily(9.0, 9.5),
            RuleEffect::NoDownsize,
        ));

    let mut kwo = Orchestrator::new(9);
    kwo.manage(
        &sim,
        "BI_WH",
        KwoSetup {
            constraints,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, 2 * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 4 * DAY_MS);

    // Verify: no action inside the window ever reduced size or clusters.
    let o = kwo.optimizer("BI_WH").unwrap();
    let in_window_violations = o
        .actuator()
        .log()
        .iter()
        .filter(|e| {
            let hod = (e.at % DAY_MS) as f64 / HOUR_MS as f64;
            (9.0..9.5).contains(&hod)
                && e.sql(o.name()).any(|s| {
                    s.contains("WAREHOUSE_SIZE=MEDIUM")
                        || s.contains("WAREHOUSE_SIZE=SMALL")
                        || s.contains("MAX_CLUSTER_COUNT=1")
                        || s.contains("MAX_CLUSTER_COUNT=2")
                })
        })
        .count();
    println!("actions violating the 9:00–9:30 rule: {in_window_violations} (must be 0)");
    assert_eq!(in_window_violations, 0);

    // Now an admin resizes the warehouse externally.
    sim.alter_warehouse(
        wh,
        WarehouseCommand::SetSize(WarehouseSize::X4Large),
        ActionSource::External,
    )
    .expect("external resize");
    kwo.run_until(&mut sim, 4 * DAY_MS + 2 * HOUR_MS);
    let paused = kwo.optimizer("BI_WH").unwrap().is_paused(sim.now());
    println!("external X4Large resize detected; optimization paused: {paused}");
    assert!(paused);

    // The admin reviews and tells Keebo to continue.
    kwo.admin_resume(&sim, "BI_WH");
    println!(
        "admin resumed; paused now: {}",
        kwo.optimizer("BI_WH").unwrap().is_paused(sim.now())
    );
    kwo.run_until(&mut sim, 6 * DAY_MS);
    println!(
        "total actions applied: {}",
        kwo.optimizer("BI_WH").unwrap().actuator().applied_count()
    );
}
