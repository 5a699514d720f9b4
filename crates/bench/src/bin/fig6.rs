//! Figure 6 — "Keebo incurs almost no overheads" (§7.3).
//!
//! Hourly series over two optimized days of an ETL warehouse: (1) actual
//! credit usage, (2) KWO's own overhead (telemetry fetches + actuator
//! commands), and (3) estimated savings from the cost model's what-if
//! replay. The paper's observations to reproduce: overhead is negligibly
//! small next to regular processing, savings dwarf overhead, and
//! actual + savings (the expected without-Keebo spend) is nearly constant
//! hour over hour for this static ETL workload.
//!
//! Usage: `cargo run --release -p bench --bin fig6 -- [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{header, table};
use bench::run_with_kwo;
use cdw_sim::{WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS};
use keebo::KwoSetup;
use workload::EtlWorkload;

const OBSERVE_DAYS: u64 = 2;
const TOTAL_DAYS: u64 = 4;

fn main() {
    let seed: u64 = bench::args::value("--seed").unwrap_or(11);

    header("Figure 6 — hourly usage, KWO overhead, and estimated savings (ETL warehouse)");
    let original = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
    let run = run_with_kwo(
        &EtlWorkload::default(),
        original,
        KwoSetup::default(),
        OBSERVE_DAYS,
        TOTAL_DAYS,
        seed,
    );

    let o = run.optimizer();
    let report = o.savings_report(&run.sim, OBSERVE_DAYS * DAY_MS, TOTAL_DAYS * DAY_MS);
    let actual_hourly = run.sim.account().ledger().warehouse(&run.warehouse);
    let overhead_hourly = run.sim.account().ledger().overhead();

    let mut rows = vec![vec![
        "hour".into(),
        "actual".into(),
        "overhead".into(),
        "est. savings".into(),
        "actual+savings".into(),
    ]];
    let first_hour = OBSERVE_DAYS * 24;
    let last_hour = TOTAL_DAYS * 24;
    let mut total_actual = 0.0;
    let mut total_overhead = 0.0;
    let mut total_savings = 0.0;
    for h in first_hour..last_hour {
        let actual = actual_hourly.hour(h)
            + if h == last_hour - 1 {
                run.sim
                    .account()
                    .warehouse(run.wh)
                    .open_session_credits(run.sim.now())
            } else {
                0.0
            };
        let overhead = overhead_hourly.hour(h);
        let without = report.replay.hourly.hour(h);
        let savings = (without - actual).max(0.0);
        total_actual += actual;
        total_overhead += overhead;
        total_savings += savings;
        // Print every 4th hour to keep the table readable; totals cover all.
        if (h - first_hour).is_multiple_of(4) {
            rows.push(vec![
                format!("{h}"),
                format!("{actual:.3}"),
                format!("{overhead:.4}"),
                format!("{savings:.3}"),
                format!("{:.3}", actual + savings),
            ]);
        }
    }
    rows.push(vec![
        "TOTAL".into(),
        format!("{total_actual:.2}"),
        format!("{total_overhead:.3}"),
        format!("{total_savings:.2}"),
        format!("{:.2}", total_actual + total_savings),
    ]);
    table(&rows);

    println!(
        "\noverhead / actual usage: {:.3}%  (paper: 'negligibly small')",
        100.0 * total_overhead / total_actual.max(1e-9)
    );
    println!(
        "estimated savings / overhead: {:.0}x  (savings must dwarf overhead)",
        total_savings / total_overhead.max(1e-9)
    );
    // Flatness of the expected without-Keebo spend across full hours.
    let mut series = Vec::new();
    for h in first_hour..last_hour {
        let actual = actual_hourly.hour(h);
        let without = report.replay.hourly.hour(h);
        series.push(actual.max(without));
    }
    let interior = &series[1..series.len().saturating_sub(1)];
    let mean: f64 = interior.iter().sum::<f64>() / interior.len().max(1) as f64;
    let cv = (interior.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
        / interior.len().max(1) as f64)
        .sqrt()
        / mean.max(1e-9);
    println!(
        "hour-to-hour CV of expected without-Keebo spend: {:.2} (static ETL => low)",
        cv
    );
    let _ = HOUR_MS; // (kept for symmetry with other binaries' imports)
}
