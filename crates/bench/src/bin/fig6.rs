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

use bench::report::{header, row, table};
use bench::{fig6, fig6_scenario, mean};

fn main() {
    let mut scenario = fig6_scenario();
    scenario.seed = bench::args::value("--seed").unwrap_or(scenario.seed);

    header("Figure 6 — hourly usage, KWO overhead, and estimated savings (ETL warehouse)");
    let f = fig6(&scenario);
    let hours = f.actual.iter().zip(&f.without);
    let savings: Vec<f64> = hours.clone().map(|(a, w)| (w - a).max(0.0)).collect();
    let mut rows = vec![row(&[
        "hour",
        "actual",
        "overhead",
        "est. savings",
        "actual+savings",
    ])];
    // Print every 4th hour to keep the table readable; totals cover all.
    for i in (0..f.actual.len()).step_by(4) {
        rows.push(vec![
            format!("{}", f.first_hour + i as u64),
            format!("{:.3}", f.actual[i]),
            format!("{:.4}", f.overhead[i]),
            format!("{:.3}", savings[i]),
            format!("{:.3}", f.actual[i] + savings[i]),
        ]);
    }
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let (actual, overhead, saved) = (total(&f.actual), total(&f.overhead), total(&savings));
    rows.push(vec![
        "TOTAL".into(),
        format!("{actual:.2}"),
        format!("{overhead:.3}"),
        format!("{saved:.2}"),
        format!("{:.2}", actual + saved),
    ]);
    table(&rows);

    println!(
        "\noverhead / actual usage: {:.3}%  (paper: 'negligibly small')",
        100.0 * overhead / actual.max(1e-9)
    );
    println!(
        "estimated savings / overhead: {:.0}x  (savings must dwarf overhead)",
        saved / overhead.max(1e-9)
    );
    // Flatness of the expected without-Keebo spend across the interior
    // hours (the last one carries a still-open session's credits).
    let series: Vec<f64> = hours.map(|(a, w)| a.max(*w)).collect();
    let interior = &series[1..series.len().saturating_sub(1)];
    let m = mean(interior);
    let cv = (interior.iter().map(|v| (v - m).powi(2)).sum::<f64>() / interior.len().max(1) as f64)
        .sqrt()
        / m.max(1e-9);
    println!(
        "hour-to-hour CV of expected without-Keebo spend: {:.2} (static ETL => low)",
        cv
    );
}
