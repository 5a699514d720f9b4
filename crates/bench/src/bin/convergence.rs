//! Onboarding convergence — the paper's §1/§9 claim:
//!
//! "On average, customers reach 50%, 70%, and 95% of their eventual savings
//! after only 20, 43, and 83 hours of onboarding."
//!
//! This binary tracks the savings *rate* (fraction of the without-Keebo
//! estimate saved) in 4-hour buckets after onboarding and reports when a
//! bucket's rate first crosses 50/70/95% of its eventual plateau. The
//! models keep learning online (more telemetry, more transitions), so the
//! curve ramps rather than jumping — the shape, not the exact hour marks,
//! is the reproduction target.
//!
//! Usage: `cargo run --release -p bench --bin convergence -- [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{header, pct, row, table};
use bench::{convergence, convergence_scenario};

fn main() {
    let mut scenario = convergence_scenario();
    scenario.seed = bench::args::value("--seed").unwrap_or(scenario.seed);

    header("Onboarding convergence — savings vs hours since onboarding");
    let c = convergence(&scenario);
    let mut rows = vec![row(&[
        "hours since onboarding",
        "savings rate",
        "cumulative savings rate",
    ])];
    for (b, (&rate, &cumulative)) in c.rates.iter().zip(&c.cumulative).enumerate() {
        rows.push(vec![
            format!("{}", (b as u64 + 1) * c.bucket_hours),
            pct(rate),
            pct(cumulative),
        ]);
    }
    table(&rows);

    println!("\neventual (plateau) savings rate: {}", pct(c.eventual()));
    for target in [0.5, 0.7, 0.95] {
        match c.hours_to(target) {
            Some(h) => println!(
                "reached {} of eventual savings after ~{h} hours",
                pct(target)
            ),
            None => println!("never reached {} of eventual savings", pct(target)),
        }
    }
    println!("(paper: 50% after 20 h, 70% after 43 h, 95% after 83 h — shape, not absolutes)");
}
