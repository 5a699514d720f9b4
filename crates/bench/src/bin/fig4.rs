//! Figure 4 — "Keebo offers significant savings" (§7.1).
//!
//! Reproduces both subfigures: daily credit usage (bars) and daily p99
//! latency (line) for 14 simulated days, with KWO enabled from day 8
//! (index 7). Variant `a` is the unpredictable ad-hoc warehouse (paper:
//! −59.7%, 10.4 → 4.2 credits/day); variant `b` is the predictable ETL
//! warehouse (paper: −13.2%, 26.9 → 23.4 credits/day, with p99 *lower*
//! under KWO thanks to steadier, warmer warehouses).
//!
//! Usage: `cargo run --release -p bench --bin fig4 -- [--variant a|b] [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{bar_row, header, pct, table};
use bench::{daily_credits, daily_p99_latency, mean, run_with_kwo};
use cdw_sim::{WarehouseConfig, WarehouseSize};
use keebo::{KwoSetup, SliderPosition};
use workload::{AdhocWorkload, EtlWorkload, WorkloadGenerator};

const OBSERVE_DAYS: u64 = 7;
const TOTAL_DAYS: u64 = 14;

fn main() {
    let variant: String = bench::args::value("--variant").unwrap_or_else(|| "both".into());
    let seed: u64 = bench::args::value("--seed").unwrap_or(42);

    if variant == "a" || variant == "both" {
        run_variant_a(seed);
    }
    if variant == "b" || variant == "both" {
        run_variant_b(seed);
    }
}

/// Fig. 4a: less predictable workload, fluctuating daily usage.
fn run_variant_a(seed: u64) {
    header("Figure 4a — unpredictable warehouse (ad-hoc analytics)");
    // An oversized warehouse with a long auto-suspend: the typical
    // pre-optimization posture for a warehouse serving analysts.
    let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let workload = AdhocWorkload::default();
    report(&workload, original, seed, SliderPosition::Balanced);
}

/// Fig. 4b: predictable ETL workload, near-constant daily usage. The
/// warehouse is densely utilized (pipelines fire every 30 minutes), so the
/// headroom KWO can reclaim is structurally small — the paper's predictable
/// warehouse saves 13.2% vs the unpredictable one's 59.7%.
fn run_variant_b(seed: u64) {
    header("Figure 4b — predictable warehouse (recurring ETL)");
    let original = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
    let workload = EtlWorkload {
        pipelines: 6,
        period_ms: 30 * cdw_sim::MINUTE_MS,
        queries_per_run: 8,
        median_work_ms: 90_000.0,
    };
    report(&workload, original, seed, SliderPosition::Balanced);
}

fn report(
    workload: &dyn WorkloadGenerator,
    original: WarehouseConfig,
    seed: u64,
    slider: SliderPosition,
) {
    let setup = KwoSetup {
        slider,
        ..KwoSetup::default()
    };
    let run = run_with_kwo(workload, original, setup, OBSERVE_DAYS, TOTAL_DAYS, seed);

    let credits = daily_credits(&run.sim, &run.warehouse, run.wh, TOTAL_DAYS);
    let p99 = daily_p99_latency(run.sim.account().query_records(), TOTAL_DAYS);
    let max = credits.iter().cloned().fold(0.0, f64::max);

    println!("daily credits (days 1-7 = before Keebo, days 8-14 = with Keebo):");
    for (d, (&c, &l)) in credits.iter().zip(&p99).enumerate() {
        let tag = if (d as u64) < OBSERVE_DAYS {
            "pre "
        } else {
            "KWO "
        };
        bar_row(&format!("{tag}day {:2}", d + 1), c, max, 40);
        println!("{:>12} |   p99 latency {:>8.1} s", "", l / 1000.0);
    }

    let before = mean(&credits[..OBSERVE_DAYS as usize]);
    let after = mean(&credits[OBSERVE_DAYS as usize..]);
    let p99_before = mean(&p99[..OBSERVE_DAYS as usize]);
    let p99_after = mean(&p99[OBSERVE_DAYS as usize..]);
    println!();
    table(&[
        vec![
            "metric".into(),
            "before".into(),
            "with KWO".into(),
            "change".into(),
        ],
        vec![
            "credits/day".into(),
            format!("{before:.1}"),
            format!("{after:.1}"),
            pct((before - after) / before.max(1e-9)),
        ],
        vec![
            "p99 latency (s)".into(),
            format!("{:.1}", p99_before / 1000.0),
            format!("{:.1}", p99_after / 1000.0),
            pct((p99_before - p99_after) / p99_before.max(1e-9)),
        ],
    ]);
    let o = run.optimizer();
    println!(
        "actions applied: {}   (failures: {})",
        o.actuator().applied_count(),
        o.actuator().failure_count()
    );
}
