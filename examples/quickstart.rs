//! Quickstart: attach KWO to one warehouse and watch it save.
//!
//! Creates an oversized BI warehouse, runs a week of traffic without Keebo,
//! onboards KWO, runs another week, and prints the savings report and
//! value-based invoice.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::expect_used)]

use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS};
use keebo::{generate_trace, KwoSetup, Orchestrator, ValueBasedPricing};
use workload::BiWorkload;

fn main() {
    // 1. A customer account with one oversized, long-auto-suspend BI
    //    warehouse — the typical pre-optimization posture.
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "BI_WH",
        WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(1, 2),
    );

    // 2. Two weeks of dashboard traffic.
    let mut sim = Simulator::new(account);
    for q in generate_trace(&BiWorkload::default(), 0, 14 * DAY_MS, 42) {
        sim.submit_query(wh, q);
    }

    // 3. Attach KWO: observe week one, onboard, optimize week two.
    let mut kwo = Orchestrator::new(42);
    kwo.manage(&sim, "BI_WH", KwoSetup::default());
    kwo.observe_until(&mut sim, 7 * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 14 * DAY_MS);

    // 4. The what-if savings report for the optimized week.
    let report = kwo.savings_report(&sim, "BI_WH", 7 * DAY_MS, 14 * DAY_MS);
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

    // 5. Value-based pricing: the customer pays a share of realized savings.
    let invoice = ValueBasedPricing::default().invoice(&report);
    println!(
        "Keebo's charge (30% of savings): {:.1} credits; customer keeps {:.1}",
        invoice.charge_credits, invoice.customer_net_credits
    );

    let o = kwo.optimizer("BI_WH").expect("managed warehouse");
    println!(
        "actions applied: {} (see the action log for the ALTER statements)",
        o.actuator().applied_count()
    );
}
