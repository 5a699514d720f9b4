//! Figure 5 — "Warehouse cost model is accurate" (§7.2).
//!
//! For four warehouses with different workloads, estimate the cost of a
//! two-day evaluation window *without running its queries* (per-template
//! execution estimates from a five-day training period feed the replay
//! engine), then actually run the window and compare against the billed
//! credits. The paper reports relative errors of 0.67%, 4.09%, 20.9%, and
//! 3.12%, with the outlier being a low-spend, rarely-used warehouse where
//! tiny absolute deviations dominate the ratio.
//!
//! Usage: `cargo run --release -p bench --bin fig5 -- [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{header, pct, row, table};
use bench::{fig5, FIG5_SEED};

fn main() {
    let seed = bench::args::value("--seed").unwrap_or(FIG5_SEED);

    header("Figure 5 — estimated vs actual warehouse cost");
    let mut rows = vec![row(&["warehouse", "actual", "estimated", "rel. error"])];
    for w in fig5(seed) {
        rows.push(vec![
            w.warehouse.into(),
            format!("{:.2}", w.actual),
            format!("{:.2}", w.estimated),
            pct(w.relative_error()),
        ]);
    }
    table(&rows);
    println!("\n(paper: 0.67%, 4.09%, 20.9%, 3.12% — the low-spend warehouse is the outlier)");
}
