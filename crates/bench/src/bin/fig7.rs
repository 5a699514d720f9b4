//! Figure 7 — "Keebo offers intuitive configuration sliders" (§7.4).
//!
//! Runs the *same* BI-style workload under all five slider positions and
//! reports total warehouse cost (bars) and average query latency (line).
//! The paper's claim to reproduce is the Pareto trade-off: moving the
//! slider from "Best Performance" toward "Lowest Cost" monotonically trades
//! latency for credits.
//!
//! Usage: `cargo run --release -p bench --bin fig7 -- [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{bar_row, header, row, table};
use bench::{fig7, fig7_scenario};

fn main() {
    let mut scenario = fig7_scenario();
    scenario.seed = bench::args::value("--seed").unwrap_or(scenario.seed);

    header("Figure 7 — cost vs latency across the five slider positions");
    let points = fig7(scenario);
    let max_credits = points.iter().map(|p| p.credits).fold(0.0, f64::max);
    for p in &points {
        bar_row(
            &format!("slider {}", p.slider.value()),
            p.credits,
            max_credits,
            40,
        );
    }
    println!();
    let mut rows = vec![row(&[
        "slider",
        "position",
        "cost (credits)",
        "avg latency (s)",
    ])];
    for p in &points {
        rows.push(vec![
            p.slider.value().to_string(),
            format!("{:?}", p.slider),
            format!("{:.1}", p.credits),
            format!("{:.2}", p.mean_latency_ms / 1000.0),
        ]);
    }
    table(&rows);
    println!(
        "\n(paper: cost rises and latency falls as the slider moves toward Best Performance;\n KWO is Pareto-efficient at each position)"
    );
}
