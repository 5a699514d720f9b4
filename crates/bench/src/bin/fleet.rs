//! Fleet-scale control-plane benchmark.
//!
//! Builds an N-tenant × M-warehouse fleet with mixed archetypes, drives it
//! through observe → onboard → optimize at several worker-thread counts,
//! and reports throughput (warehouses simulated per second), speedup vs a
//! single thread, and the fleet savings rollup. The same fleet must produce
//! *bit-identical* aggregates at every thread count — the run aborts if the
//! report digests disagree.
//!
//! Usage: `fleet [--smoke]` — `--smoke` runs a tiny 2×2 fleet over 2 days
//! (the CI configuration); the default is 4 tenants × 4 warehouses over
//! 3 days.

use bench::report::{header, pct, table};
use cdw_sim::DAY_MS;
use keebo::{FleetReport, WorkerPool};
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;

#[derive(Serialize)]
struct RunRow {
    threads: usize,
    wall_secs: f64,
    /// Cumulative worker seconds spent *building* shards (account setup +
    /// trace submission). Kept out of the drive figure: the original bench
    /// timed construction inside the same window as simulation, inflating
    /// wall_secs and flattening speedup_vs_1.
    build_secs: f64,
    /// Cumulative worker seconds spent *driving* shards (observe/onboard/
    /// optimize + report rollup).
    drive_secs: f64,
    warehouses_per_sec: f64,
    speedup_vs_1: f64,
    digest: String,
}

#[derive(Serialize)]
struct FleetShape {
    tenants: usize,
    warehouses_per_tenant: usize,
    warehouses: usize,
    observe_days: u64,
    total_days: u64,
    seed: u64,
    smoke: bool,
}

#[derive(Serialize)]
struct BenchOutput {
    fleet: FleetShape,
    runs: Vec<RunRow>,
    aggregates_bit_identical: bool,
    estimated_without_keebo: f64,
    actual_with_keebo: f64,
    fleet_savings_credits: f64,
    savings_fraction: f64,
    invoice: keebo::Invoice,
    ops: keebo::OpsKpis,
}

fn main() {
    let smoke = bench::args::flag("--smoke");
    let (tenants, per_tenant, observe_days, total_days) =
        if smoke { (2, 2, 1, 2) } else { (4, 4, 1, 3) };
    let fleet = bench::mixed_fleet(SEED, tenants, per_tenant, total_days);
    let warehouses = fleet.warehouse_count();
    header(&format!(
        "fleet bench: {tenants} tenants x {per_tenant} warehouses, \
         {total_days} days ({observe_days} observed), seed {SEED}"
    ));

    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    // One persistent pool reused across every run: the digest must not care.
    let pool = WorkerPool::new(*thread_counts.iter().max().unwrap());
    let mut runs: Vec<RunRow> = Vec::new();
    let mut reports: Vec<FleetReport> = Vec::new();
    for &threads in thread_counts {
        let start = Instant::now();
        let (report, stats) =
            fleet.run_on_timed(&pool, observe_days * DAY_MS, total_days * DAY_MS, threads);
        let wall = start.elapsed().as_secs_f64();
        runs.push(RunRow {
            threads,
            wall_secs: wall,
            build_secs: stats.build_secs,
            drive_secs: stats.drive_secs,
            warehouses_per_sec: warehouses as f64 / wall,
            speedup_vs_1: runs.first().map_or(1.0, |r| r.wall_secs / wall),
            digest: format!("{:016x}", report.digest()),
        });
        reports.push(report);
    }

    let identical = reports.iter().all(|r| r.digest() == reports[0].digest());
    assert!(
        identical,
        "fleet aggregates diverged across thread counts: {:?}",
        runs.iter().map(|r| &r.digest).collect::<Vec<_>>()
    );

    let rep = &reports[0];
    let savings_fraction = if rep.estimated_without_keebo > 0.0 {
        rep.estimated_savings / rep.estimated_without_keebo
    } else {
        0.0
    };

    let mut rows = vec![vec![
        "threads".to_string(),
        "wall_s".to_string(),
        "build_s".to_string(),
        "drive_s".to_string(),
        "wh/s".to_string(),
        "speedup".to_string(),
        "digest".to_string(),
    ]];
    for r in &runs {
        rows.push(vec![
            r.threads.to_string(),
            format!("{:.2}", r.wall_secs),
            format!("{:.2}", r.build_secs),
            format!("{:.2}", r.drive_secs),
            format!("{:.2}", r.warehouses_per_sec),
            format!("{:.2}x", r.speedup_vs_1),
            r.digest.clone(),
        ]);
    }
    table(&rows);
    println!();
    println!(
        "fleet savings: {:.1} of {:.1} credits ({}), keebo charge {:.1}, health {:?}",
        rep.estimated_savings,
        rep.estimated_without_keebo,
        pct(savings_fraction),
        rep.invoice.charge_credits,
        rep.ops.health,
    );

    let out = BenchOutput {
        fleet: FleetShape {
            tenants,
            warehouses_per_tenant: per_tenant,
            warehouses,
            observe_days,
            total_days,
            seed: SEED,
            smoke,
        },
        runs,
        aggregates_bit_identical: identical,
        estimated_without_keebo: rep.estimated_without_keebo,
        actual_with_keebo: rep.actual_with_keebo,
        fleet_savings_credits: rep.estimated_savings,
        savings_fraction,
        invoice: rep.invoice.clone(),
        ops: rep.ops.clone(),
    };
    bench::report::write_json("BENCH_fleet.json", &out);

    // Export the observability counters/histograms accumulated across all
    // runs (queue waits, tick wall times, actuation outcomes, shard walls).
    let metrics = keebo::obs::prometheus_text(&keebo::obs::global().snapshot());
    bench::report::write_report("BENCH_fleet_metrics.prom", &metrics);
    println!("exported {} metric lines", metrics.lines().count());
}
