//! Shared experiment harness.
//!
//! Every figure binary follows the same recipe: build a workload with the
//! statistical shape the paper describes, run it through the simulator with
//! and without KWO, and print the same rows/series the paper plots. The
//! helpers here keep those binaries small and make the setups reusable from
//! integration tests.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use cdw_sim::{
    Account, QueryRecord, SimTime, Simulator, WarehouseConfig, WarehouseId, DAY_MS, HOUR_MS,
};
use keebo::{KwoSetup, Orchestrator, WarehouseOptimizer};
use workload::{generate_trace, WorkloadGenerator};

pub mod args;
pub mod estimator;
pub mod report;

/// A finished experiment run: the simulator (holding telemetry and billing)
/// plus the orchestrator (holding models and action logs).
pub struct KwoRun {
    pub sim: Simulator,
    pub kwo: Orchestrator,
    pub warehouse: String,
    pub wh: WarehouseId,
    /// When KWO was onboarded (actions start after this).
    pub onboard_at: SimTime,
}

impl KwoRun {
    /// The run's one optimizer. A figure bin exits with an error instead of
    /// panicking if the warehouse was never managed.
    pub fn optimizer(&self) -> &WarehouseOptimizer {
        match self.kwo.optimizer(&self.warehouse) {
            Some(o) => o,
            None => {
                eprintln!("{} is not managed by the run", self.warehouse);
                std::process::exit(1);
            }
        }
    }
}

/// Runs `workload` on a fresh warehouse with `original` config: days
/// `[0, observe_days)` without Keebo (observation mode), then onboarding,
/// then optimization until `total_days`.
pub fn run_with_kwo(
    workload: &dyn WorkloadGenerator,
    original: WarehouseConfig,
    setup: KwoSetup,
    observe_days: u64,
    total_days: u64,
    seed: u64,
) -> KwoRun {
    let (observe_ms, total_ms) = (observe_days * DAY_MS, total_days * DAY_MS);
    run_with_kwo_ms(workload, original, setup, observe_ms, total_ms, seed)
}

/// Hour-granular variant of [`run_with_kwo`] for onboarding experiments.
pub fn run_with_kwo_hours(
    workload: &dyn WorkloadGenerator,
    original: WarehouseConfig,
    setup: KwoSetup,
    observe_hours: u64,
    total_hours: u64,
    seed: u64,
) -> KwoRun {
    let (observe_ms, total_ms) = (observe_hours * HOUR_MS, total_hours * HOUR_MS);
    run_with_kwo_ms(workload, original, setup, observe_ms, total_ms, seed)
}

fn run_with_kwo_ms(
    workload: &dyn WorkloadGenerator,
    original: WarehouseConfig,
    setup: KwoSetup,
    observe_ms: SimTime,
    total_ms: SimTime,
    seed: u64,
) -> KwoRun {
    let warehouse = workload.name().to_uppercase() + "_WH";
    let mut account = Account::new();
    let wh = account.create_warehouse(&warehouse, original);
    let mut sim = Simulator::new(account);
    for q in generate_trace(workload, 0, total_ms, seed) {
        sim.submit_query(wh, q);
    }
    let mut kwo = Orchestrator::new(seed ^ 0x4B45_4542); // "KEEB"
    kwo.manage(&sim, &warehouse, setup);
    kwo.observe_until(&mut sim, observe_ms);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, total_ms);
    KwoRun {
        sim,
        kwo,
        warehouse,
        wh,
        onboard_at: observe_ms,
    }
}

/// Daily billed credits for a warehouse over `[0, days)`, including credits
/// still accrued in an open session on the final day.
pub fn daily_credits(sim: &Simulator, warehouse: &str, wh: WarehouseId, days: u64) -> Vec<f64> {
    let hourly = sim.account().ledger().warehouse(warehouse);
    let mut by_day: Vec<f64> = (0..days)
        .map(|d| hourly.range_total(d * 24, (d + 1) * 24))
        .collect();
    // Open-session residue lands on the last day so totals stay honest.
    let open = sim.account().warehouse(wh).open_session_credits(sim.now());
    if let Some(last) = by_day.last_mut() {
        *last += open;
    }
    by_day
}

/// Daily p99 end-to-end latencies (ms) over `[0, days)`; days with no
/// completions report 0.
pub fn daily_p99_latency(records: &[QueryRecord], days: u64) -> Vec<f64> {
    (0..days)
        .map(|d| {
            let lats: Vec<f64> = records
                .iter()
                .filter(|r| r.end / DAY_MS == d)
                .map(|r| r.total_latency_ms() as f64)
                .collect();
            telemetry::percentile(&lats, 99.0)
        })
        .collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
