//! Serving-gateway admission/dispatch benchmark.
//!
//! Drives a mixed open-loop + closed-loop client population through
//! `keebo::gateway` at several worker counts and reports what a serving
//! front door is judged on: admission wall latency (p50/p99/p999), shed
//! rate by reason, and per-priority dispatch throughput — plus the repo's
//! non-negotiable: the fleet digest, the admission-decision digest, and
//! the response digest must be bit-identical at every thread count (the
//! run aborts otherwise).
//!
//! Writes `BENCH_gateway.json` and a Prometheus snapshot. Usage:
//! `gateway [--smoke]` — `--smoke` shrinks to 4 tenants / 8 ticks at 1/2
//! threads (the CI configuration).

use bench::report::{header, table};
use cdw_sim::{QuerySpec, WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS};
use keebo::{
    derive_stream_seed, Gateway, GatewayConfig, GatewayStats, Priority, Request, RequestKind, Rule,
    RuleEffect, SliderPosition, TenantSpec, WarehouseSpec, WorkerPool,
};
use serde::Serialize;
use std::time::Instant;
use telemetry::percentile;
use workload::loadgen::{ClosedLoopDriver, LoadEvent, LoadOp, LoadPriority};
use workload::{generate_trace, open_loop_plan, BiWorkload, EtlWorkload};

const SEED: u64 = 2027;

#[derive(Serialize)]
struct RunRow {
    threads: usize,
    wall_secs: f64,
    submitted: u64,
    admitted: u64,
    shed_rate_limited: u64,
    shed_quota_exhausted: u64,
    shed_queue_full: u64,
    shed_unknown_tenant: u64,
    /// Fraction of submitted requests shed (any reason).
    shed_rate: f64,
    admit_p50_us: f64,
    admit_p99_us: f64,
    admit_p999_us: f64,
    dispatched_interactive: u64,
    dispatched_batch: u64,
    /// Deterministic queue-wait percentiles, in whole control ticks.
    wait_p99_interactive_ticks: f64,
    wait_p99_batch_ticks: f64,
    fleet_digest: String,
    decisions_digest: String,
    responses_digest: String,
}

#[derive(Serialize)]
struct BenchOutput {
    tenants: usize,
    warehouses: usize,
    ticks: u64,
    tick_ms: u64,
    seed: u64,
    smoke: bool,
    host_cpus: usize,
    open_loop_events: usize,
    closed_loop_clients: usize,
    runs: Vec<RunRow>,
    digests_bit_identical: bool,
}

fn build_tenants(tenants: usize, per_tenant: usize, days: u64) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|t| {
            let mut spec = TenantSpec::new(format!("tenant-{t}"));
            for w in 0..per_tenant {
                let name = format!("T{t}_WH{w}");
                let wh_seed = derive_stream_seed(SEED, &name);
                let queries = match (t + w) % 2 {
                    0 => generate_trace(
                        &EtlWorkload {
                            pipelines: 2,
                            queries_per_run: 2,
                            period_ms: 2 * HOUR_MS,
                            ..EtlWorkload::default()
                        },
                        0,
                        days * DAY_MS,
                        wh_seed,
                    ),
                    _ => generate_trace(
                        &BiWorkload {
                            dashboards: 2,
                            queries_per_refresh: 2,
                            peak_refreshes_per_hour: 4.0,
                            ..BiWorkload::default()
                        },
                        0,
                        days * DAY_MS,
                        wh_seed,
                    ),
                };
                spec = spec.add_warehouse(WarehouseSpec {
                    name,
                    config: WarehouseConfig::new(WarehouseSize::Medium)
                        .with_auto_suspend_secs(1800),
                    setup: keebo::drill::fast_setup(),
                    queries: queries.into(),
                });
            }
            spec
        })
        .collect()
}

fn to_request(e: &LoadEvent) -> Request {
    let priority = match e.priority {
        LoadPriority::Interactive => Priority::Interactive,
        LoadPriority::Batch => Priority::Batch,
    };
    let kind = match &e.op {
        LoadOp::SubmitQuery { work_ms } => RequestKind::SubmitQuery {
            warehouse: e.warehouse.clone(),
            spec: QuerySpec::builder(0).work_ms_xs(*work_ms).build(),
        },
        LoadOp::SetSlider { position } => RequestKind::SetSlider {
            warehouse: e.warehouse.clone(),
            slider: match position {
                0 => SliderPosition::LowestCost,
                1 => SliderPosition::LowCost,
                2 => SliderPosition::Balanced,
                3 => SliderPosition::GoodPerformance,
                _ => SliderPosition::BestPerformance,
            },
        },
        LoadOp::EditConstraint => RequestKind::EditConstraint {
            warehouse: e.warehouse.clone(),
            rule: Rule::new(
                "bench-no-suspend",
                keebo::TimeWindow::daily(8.0, 18.0),
                RuleEffect::NoSuspend,
            ),
        },
        LoadOp::TraceQuery => RequestKind::TraceQuery {
            warehouse: e.warehouse.clone(),
        },
    };
    Request {
        tenant: e.tenant.clone(),
        priority,
        kind,
    }
}

struct RunResult {
    fleet_digest: u64,
    stats: GatewayStats,
    wall_secs: f64,
    submitted: u64,
}

/// One full gateway run at the given parallelism: identical load on every
/// call (open-loop plan replayed; closed-loop clients re-seeded and fed
/// the gateway's own outcomes, which are themselves deterministic).
fn run_once(
    pool: &WorkerPool,
    parallelism: usize,
    tenants: Vec<TenantSpec>,
    config: &GatewayConfig,
    plan: &[LoadEvent],
    names: &[(String, Vec<String>)],
    clients_per_tenant: usize,
    ticks: u64,
) -> RunResult {
    let mut gw = Gateway::new(SEED, config.clone(), tenants);
    gw.start(pool, parallelism, DAY_MS);
    let mut clients = ClosedLoopDriver::new(SEED, names, clients_per_tenant, 1, 2);
    let start = Instant::now();
    let mut submitted = 0u64;
    let mut next = 0usize;
    for tick in 0..ticks {
        while next < plan.len() && plan[next].tick == tick {
            gw.submit(to_request(&plan[next]));
            submitted += 1;
            next += 1;
        }
        for e in clients.requests_for_tick(tick) {
            let client = e.client.unwrap_or_default();
            let admitted = gw.submit(to_request(&e)).is_admitted();
            clients.on_outcome(client, admitted, tick);
            submitted += 1;
        }
        gw.tick(pool, parallelism);
    }
    let (report, stats) = gw.finish(pool, parallelism);
    RunResult {
        fleet_digest: report.digest(),
        stats,
        wall_secs: start.elapsed().as_secs_f64(),
        submitted,
    }
}

fn main() {
    let smoke = bench::args::flag("--smoke");
    let (tenants_n, per_tenant, ticks) = if smoke { (4, 2, 8) } else { (32, 2, 48) };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let clients_per_tenant = 4;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let days = 2;

    let config = GatewayConfig {
        tick_ms: 30 * MINUTE_MS,
        bucket_capacity: 6.0,
        refill_per_tick: 3.0,
        quota: 10_000,
        // Admission outpaces dispatch (~3 admits vs 2 slots per tick), so
        // the bounded queues actually fill: the run exercises queue waits
        // and queue-full sheds, not just the token bucket.
        queue_capacity: 8,
        batch_per_tenant: 2,
        reserved_batch_slots: 1,
    };
    let names: Vec<(String, Vec<String>)> = (0..tenants_n)
        .map(|t| {
            (
                format!("tenant-{t}"),
                (0..per_tenant).map(|w| format!("T{t}_WH{w}")).collect(),
            )
        })
        .collect();
    let plan = open_loop_plan(SEED, &names, ticks, 3.0, 0.4);
    header(&format!(
        "gateway bench: {tenants_n} tenants x {per_tenant} warehouses, {ticks} ticks of \
         {} min, {} open-loop events + {} closed-loop clients, seed {SEED}, {host_cpus} host cpus",
        config.tick_ms / MINUTE_MS,
        plan.len(),
        tenants_n * clients_per_tenant,
    ));

    let pool = WorkerPool::new(*thread_counts.iter().max().unwrap());
    let mut runs: Vec<RunRow> = Vec::new();
    let mut digests: Vec<(u64, u64, u64)> = Vec::new();
    for &threads in thread_counts {
        let r = run_once(
            &pool,
            threads,
            build_tenants(tenants_n, per_tenant, days),
            &config,
            &plan,
            &names,
            clients_per_tenant,
            ticks,
        );
        let s = &r.stats;
        let shed_total = s.shed.total();
        runs.push(RunRow {
            threads,
            wall_secs: r.wall_secs,
            submitted: r.submitted,
            admitted: s.admitted,
            shed_rate_limited: s.shed.rate_limited,
            shed_quota_exhausted: s.shed.quota_exhausted,
            shed_queue_full: s.shed.queue_full,
            shed_unknown_tenant: s.shed.unknown_tenant,
            shed_rate: shed_total as f64 / r.submitted.max(1) as f64,
            admit_p50_us: percentile(&s.admit_wall_us, 50.0),
            admit_p99_us: percentile(&s.admit_wall_us, 99.0),
            admit_p999_us: percentile(&s.admit_wall_us, 99.9),
            dispatched_interactive: s.dispatched_interactive,
            dispatched_batch: s.dispatched_batch,
            wait_p99_interactive_ticks: percentile(&s.wait_ticks_interactive, 99.0),
            wait_p99_batch_ticks: percentile(&s.wait_ticks_batch, 99.0),
            fleet_digest: format!("{:016x}", r.fleet_digest),
            decisions_digest: format!("{:016x}", s.decisions_digest),
            responses_digest: format!("{:016x}", s.responses_digest),
        });
        digests.push((r.fleet_digest, s.decisions_digest, s.responses_digest));
        let row = runs.last().unwrap();
        println!(
            "  {} threads: {:.2}s wall, {}/{} admitted ({:.0}% shed), \
             admit p50/p99/p999 {:.2}/{:.2}/{:.2} us",
            threads,
            row.wall_secs,
            row.admitted,
            row.submitted,
            row.shed_rate * 100.0,
            row.admit_p50_us,
            row.admit_p99_us,
            row.admit_p999_us,
        );
    }

    let identical = digests.iter().all(|d| *d == digests[0]);
    assert!(
        identical,
        "gateway diverged across thread counts: {:?}",
        runs.iter()
            .map(|r| (&r.fleet_digest, &r.decisions_digest, &r.responses_digest))
            .collect::<Vec<_>>()
    );
    let first = &runs[0];
    assert!(first.admitted > 0, "bench admitted nothing");
    assert!(
        first.dispatched_interactive > 0 && first.dispatched_batch > 0,
        "both priority classes must see traffic"
    );

    let mut rows = vec![vec![
        "threads".to_string(),
        "wall_s".to_string(),
        "admitted".to_string(),
        "shed%".to_string(),
        "p50_us".to_string(),
        "p99_us".to_string(),
        "p999_us".to_string(),
        "fleet_digest".to_string(),
    ]];
    for r in &runs {
        rows.push(vec![
            r.threads.to_string(),
            format!("{:.2}", r.wall_secs),
            r.admitted.to_string(),
            format!("{:.1}", r.shed_rate * 100.0),
            format!("{:.2}", r.admit_p50_us),
            format!("{:.2}", r.admit_p99_us),
            format!("{:.2}", r.admit_p999_us),
            r.fleet_digest.clone(),
        ]);
    }
    table(&rows);

    let out = BenchOutput {
        tenants: tenants_n,
        warehouses: tenants_n * per_tenant,
        ticks,
        tick_ms: config.tick_ms,
        seed: SEED,
        smoke,
        host_cpus,
        open_loop_events: plan.len(),
        closed_loop_clients: tenants_n * clients_per_tenant,
        runs,
        digests_bit_identical: identical,
    };
    bench::report::write_json("BENCH_gateway.json", &out);

    let metrics = keebo::obs::prometheus_text(&keebo::obs::global().snapshot());
    bench::report::write_report("BENCH_gateway_metrics.prom", &metrics);
    println!("exported {} metric lines", metrics.lines().count());
}
