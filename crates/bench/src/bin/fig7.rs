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

use bench::report::{bar_row, header, table};
use bench::{mean, run_with_kwo};
use cdw_sim::{WarehouseConfig, WarehouseSize, DAY_MS};
use keebo::{KwoSetup, SliderPosition};
use workload::BiWorkload;

const OBSERVE_DAYS: u64 = 3;
const TOTAL_DAYS: u64 = 8;

fn main() {
    let seed: u64 = bench::args::value("--seed").unwrap_or(21);

    header("Figure 7 — cost vs latency across the five slider positions");
    let mut results: Vec<(SliderPosition, f64, f64)> = Vec::new();
    for slider in SliderPosition::ALL {
        let original = WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(1, 2);
        let setup = KwoSetup {
            slider,
            ..KwoSetup::default()
        };
        let run = run_with_kwo(
            &BiWorkload::default(),
            original,
            setup,
            OBSERVE_DAYS,
            TOTAL_DAYS,
            seed,
        );
        // Evaluate only the optimized window.
        let eval_start = OBSERVE_DAYS * DAY_MS;
        let credits = run
            .sim
            .account()
            .ledger()
            .warehouse(&run.warehouse)
            .range_total(OBSERVE_DAYS * 24, TOTAL_DAYS * 24)
            + run
                .sim
                .account()
                .warehouse(run.wh)
                .open_session_credits(run.sim.now());
        let latencies: Vec<f64> = run
            .sim
            .account()
            .query_records()
            .iter()
            .filter(|r| r.end >= eval_start)
            .map(|r| r.total_latency_ms() as f64)
            .collect();
        results.push((slider, credits, mean(&latencies) / 1000.0));
    }

    let max_credits = results.iter().map(|r| r.1).fold(0.0, f64::max);
    for (slider, credits, _) in &results {
        bar_row(
            &format!("slider {}", slider.value()),
            *credits,
            max_credits,
            40,
        );
    }
    println!();
    let mut rows = vec![vec![
        "slider".into(),
        "position".into(),
        "cost (credits)".into(),
        "avg latency (s)".into(),
    ]];
    for (slider, credits, lat) in &results {
        rows.push(vec![
            slider.value().to_string(),
            format!("{slider:?}"),
            format!("{credits:.1}"),
            format!("{lat:.2}"),
        ]);
    }
    table(&rows);
    println!(
        "\n(paper: cost rises and latency falls as the slider moves toward Best Performance;\n KWO is Pareto-efficient at each position)"
    );
}
