//! Onboarding convergence — the paper's §1/§9 claim:
//!
//! "On average, customers reach 50%, 70%, and 95% of their eventual savings
//! after only 20, 43, and 83 hours of onboarding."
//!
//! This binary tracks the savings *rate* (fraction of the without-Keebo
//! estimate saved) in 12-hour buckets after onboarding and reports when the
//! cumulative savings rate crosses 50/70/95% of its eventual plateau. The
//! models keep learning online (more telemetry, more transitions), so the
//! curve ramps rather than jumping — the shape, not the exact hour marks,
//! is the reproduction target.
//!
//! Usage: `cargo run --release -p bench --bin convergence -- [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{header, pct, table};
use cdw_sim::{WarehouseConfig, WarehouseSize, HOUR_MS};
use keebo::{KwoSetup, SliderPosition};
use workload::AdhocWorkload;

const OBSERVE_HOURS: u64 = 6;
const OPTIMIZE_DAYS: u64 = 7;
const BUCKET_HOURS: u64 = 4;

fn main() {
    let seed: u64 = bench::args::value("--seed").unwrap_or(5);

    header("Onboarding convergence — savings vs hours since onboarding");
    let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let setup = KwoSetup {
        slider: SliderPosition::Balanced,
        // Modest initial training so there is headroom to converge into.
        onboarding_episodes: 2,
        refresh_episodes: 2,
        train_interval_ms: 12 * HOUR_MS,
        ..KwoSetup::default()
    };
    let run = bench::run_with_kwo_hours(
        &AdhocWorkload::default(),
        original,
        setup,
        OBSERVE_HOURS,
        OBSERVE_HOURS + OPTIMIZE_DAYS * 24,
        seed,
    );
    let o = run.optimizer();

    let total_buckets = OPTIMIZE_DAYS * 24 / BUCKET_HOURS;
    let mut rows = vec![vec![
        "hours since onboarding".into(),
        "savings rate".into(),
        "cumulative savings rate".into(),
    ]];
    let mut cumulative: Vec<f64> = Vec::new();
    let mut cum_saved = 0.0;
    let mut cum_without = 0.0;
    let mut rates = Vec::new();
    for b in 0..total_buckets {
        let start = OBSERVE_HOURS * HOUR_MS + b * BUCKET_HOURS * HOUR_MS;
        let end = start + BUCKET_HOURS * HOUR_MS;
        let report = o.savings_report(&run.sim, start, end);
        let rate = report.savings_fraction.max(0.0);
        cum_saved += report.estimated_savings.max(0.0);
        cum_without += report.estimated_without_keebo;
        let cum_rate = cum_saved / cum_without.max(1e-9);
        cumulative.push(cum_rate);
        rates.push(rate);
        rows.push(vec![
            format!("{}", (b + 1) * BUCKET_HOURS),
            pct(rate),
            pct(cum_rate),
        ]);
    }
    table(&rows);

    // "Eventual" savings = plateau over the final quarter of the run.
    let tail = &rates[rates.len() - (rates.len() / 4).max(1)..];
    let eventual: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
    println!("\neventual (plateau) savings rate: {}", pct(eventual));
    for target in [0.5, 0.7, 0.95] {
        let hours = rates
            .iter()
            .position(|&r| r >= target * eventual)
            .map(|b| (b + 1) as u64 * BUCKET_HOURS);
        match hours {
            Some(h) => println!(
                "reached {} of eventual savings after ~{h} hours",
                pct(target)
            ),
            None => println!("never reached {} of eventual savings", pct(target)),
        }
    }
    println!("(paper: 50% after 20 h, 70% after 43 h, 95% after 83 h — shape, not absolutes)");
}
