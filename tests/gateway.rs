//! Serving-gateway acceptance tests: determinism across thread counts,
//! priority isolation under flood, and per-tenant quota fairness.
//!
//! The gateway extends the repo's crown-jewel invariant — bit-identical
//! results at any worker count — to the admission/dispatch path: the same
//! request sequence must produce the same admission decisions, the same
//! shed set, and the same fleet digest whether shards run on 1 worker or 8.

#![allow(clippy::expect_used)]

use cdw_sim::{QuerySpec, WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS};
use keebo::orchestrator::derive_stream_seed;
use keebo::{
    Admission, Gateway, GatewayConfig, GatewayStats, KwoSetup, Priority, Request, RequestKind,
    Rule, RuleEffect, ShedReason, SliderPosition, TenantSpec, TimeWindow, WarehouseSpec,
    WorkerPool,
};
use workload::loadgen::{ClosedLoopDriver, LoadEvent, LoadOp, LoadPriority};
use workload::{generate_trace, open_loop_plan, BiWorkload, EtlWorkload};

fn fast_setup() -> KwoSetup {
    KwoSetup {
        realtime_interval_ms: 30 * MINUTE_MS,
        onboarding_episodes: 2,
        refresh_episodes: 0,
        train_interval_ms: 2 * DAY_MS,
        ..KwoSetup::default()
    }
}

fn warehouse_spec(name: &str, archetype: usize, seed: u64, days: u64) -> WarehouseSpec {
    let queries = match archetype % 2 {
        0 => generate_trace(
            &EtlWorkload {
                pipelines: 2,
                queries_per_run: 2,
                period_ms: 2 * HOUR_MS,
                ..EtlWorkload::default()
            },
            0,
            days * DAY_MS,
            seed,
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
            seed,
        ),
    };
    WarehouseSpec {
        name: name.to_string(),
        config: WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(1800),
        setup: fast_setup(),
        queries: queries.into(),
    }
}

fn tenant(seed: u64, t: usize, warehouses: usize, days: u64) -> TenantSpec {
    let mut tenant = TenantSpec::new(format!("tenant-{t}"));
    for w in 0..warehouses {
        let name = format!("T{t}_WH{w}");
        let wh_seed = derive_stream_seed(seed, &name);
        tenant = tenant.add_warehouse(warehouse_spec(&name, t + w, wh_seed, days));
    }
    tenant
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
                "no-suspend",
                TimeWindow::daily(8.0, 18.0),
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

/// Replays `plan` through `ticks` control ticks: events with `tick == k`
/// are submitted after `k` ticks have run, followed by whatever the
/// closed-loop `clients` issue in that window (each told its own outcome),
/// then the tick executes.
fn drive(
    gw: &mut Gateway,
    pool: &WorkerPool,
    parallelism: usize,
    plan: &[LoadEvent],
    clients: &mut ClosedLoopDriver,
    ticks: u64,
) -> Vec<Admission> {
    let mut decisions = Vec::new();
    let mut next = 0usize;
    for tick in 0..ticks {
        while next < plan.len() && plan[next].tick == tick {
            decisions.push(gw.submit(to_request(&plan[next])));
            next += 1;
        }
        for e in clients.requests_for_tick(tick) {
            let decision = gw.submit(to_request(&e));
            let client = e.client.expect("closed-loop events name their client");
            clients.on_outcome(client, decision.is_admitted(), tick);
            decisions.push(decision);
        }
        gw.tick(pool, parallelism);
    }
    decisions
}

#[test]
fn gateway_is_bit_identical_across_thread_counts() {
    const SEED: u64 = 601;
    const TICKS: u64 = 12;
    let tenant_names: Vec<(String, Vec<String>)> = (0..3)
        .map(|t| {
            (
                format!("tenant-{t}"),
                (0..2).map(|w| format!("T{t}_WH{w}")).collect(),
            )
        })
        .collect();
    // Open loop against a tight bucket, so the plan exercises shedding, not
    // just admission.
    let tight_bucket = GatewayConfig {
        bucket_capacity: 2.0,
        refill_per_tick: 1.0,
        ..GatewayConfig::default()
    };
    // Open loop plus 4 closed-loop clients per tenant, whose next request
    // depends on the last verdict. Admission outpaces dispatch (~3 admits
    // vs 2 slots per tick), so the bounded queues fill: queue waits and
    // queue-full sheds, not just the token bucket.
    let overloaded = GatewayConfig {
        bucket_capacity: 6.0,
        refill_per_tick: 3.0,
        queue_capacity: 8,
        batch_per_tenant: 2,
        ..GatewayConfig::default()
    };

    let plan = open_loop_plan(SEED, &tenant_names, TICKS, 3.0, 0.6);
    assert!(!plan.is_empty());

    let pool = WorkerPool::new(8);
    for (config, clients_per_tenant) in [(tight_bucket, 0), (overloaded, 4)] {
        let mut baseline: Option<(Vec<Admission>, u64, GatewayStats)> = None;
        for parallelism in [1usize, 2, 4, 8] {
            let tenants: Vec<TenantSpec> = (0..3).map(|t| tenant(SEED, t, 2, 2)).collect();
            let mut gw = Gateway::new(SEED, config.clone(), tenants);
            gw.start(&pool, parallelism, DAY_MS);
            let mut clients = ClosedLoopDriver::new(SEED, &tenant_names, clients_per_tenant, 1, 2);
            let decisions = drive(&mut gw, &pool, parallelism, &plan, &mut clients, TICKS);
            let (report, stats) = gw.finish(&pool, parallelism);
            let Some((d0, fleet0, s0)) = &baseline else {
                assert!(stats.admitted > 0, "plan admitted nothing");
                assert!(stats.shed.total() > 0, "plan shed nothing");
                if clients_per_tenant > 0 {
                    assert!(stats.shed.queue_full > 0, "queues never filled");
                    assert!(
                        stats.dispatched_interactive > 0 && stats.dispatched_batch > 0,
                        "both priority classes must see traffic"
                    );
                }
                baseline = Some((decisions, report.digest(), stats));
                continue;
            };
            assert_eq!(
                &decisions, d0,
                "admission decisions diverged at {parallelism}"
            );
            assert_eq!(
                report.digest(),
                *fleet0,
                "fleet digest diverged at {parallelism}"
            );
            assert_eq!(
                stats.decisions_digest, s0.decisions_digest,
                "decision digest diverged at {parallelism}"
            );
            assert_eq!(
                stats.responses_digest, s0.responses_digest,
                "response digest diverged at {parallelism}"
            );
            assert_eq!(stats.shed, s0.shed, "shed set diverged at {parallelism}");
            assert_eq!(
                stats.wait_ticks_interactive, s0.wait_ticks_interactive,
                "interactive waits diverged at {parallelism}"
            );
            assert_eq!(
                stats.wait_ticks_batch, s0.wait_ticks_batch,
                "batch waits diverged at {parallelism}"
            );
        }
    }
}

#[test]
fn interactive_latency_is_bounded_under_batch_flood() {
    const SEED: u64 = 701;
    const TICKS: u64 = 16;
    let pool = WorkerPool::new(2);
    let config = GatewayConfig {
        bucket_capacity: 64.0,
        refill_per_tick: 64.0,
        quota: 100_000,
        queue_capacity: 64,
        batch_per_tenant: 2,
        reserved_batch_slots: 1,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(SEED, config, vec![tenant(SEED, 0, 1, 2)]);
    gw.start(&pool, 2, DAY_MS);

    // Every tick: a 4-wide batch/ETL flood plus one interactive request.
    for _ in 0..TICKS {
        for _ in 0..4 {
            let a = gw.submit(Request {
                tenant: "tenant-0".to_string(),
                priority: Priority::Batch,
                kind: RequestKind::SubmitQuery {
                    warehouse: "T0_WH0".to_string(),
                    spec: QuerySpec::builder(0).work_ms_xs(60_000.0).build(),
                },
            });
            assert!(
                a.is_admitted()
                    || matches!(
                        a,
                        Admission::Shed {
                            reason: ShedReason::QueueFull
                        }
                    )
            );
        }
        let interactive = gw.submit(Request {
            tenant: "tenant-0".to_string(),
            priority: Priority::Interactive,
            kind: RequestKind::TraceQuery {
                warehouse: "T0_WH0".to_string(),
            },
        });
        assert!(
            interactive.is_admitted(),
            "interactive must never queue-shed here"
        );
        gw.tick(&pool, 2);
    }
    let (_, stats) = gw.finish(&pool, 2);

    // Interactive requests dispatch on the very next tick (wait 0) even
    // though batch arrivals outnumber them 4:1 and the batch queue backs
    // up; p99 stays under one tick of waiting.
    assert_eq!(stats.dispatched_interactive, TICKS);
    let p99 = telemetry::percentile(&stats.wait_ticks_interactive, 99.0);
    assert!(
        p99 <= 1.0,
        "interactive p99 wait {p99} ticks under batch flood"
    );
    // Starvation protection: the reserved slot kept draining batch work
    // every tick.
    assert!(
        stats.dispatched_batch >= TICKS,
        "batch starved: only {} dispatched over {TICKS} ticks",
        stats.dispatched_batch
    );
}

#[test]
fn noisy_tenant_cannot_degrade_a_quiet_one() {
    const SEED: u64 = 801;
    const TICKS: u64 = 10;
    let config = GatewayConfig {
        bucket_capacity: 4.0,
        refill_per_tick: 2.0,
        // Low enough that the noisy tenant's ~2/tick trickle of admitted
        // requests exhausts it mid-run; the quiet tenant's 1/tick never
        // gets close.
        quota: 15,
        queue_capacity: 8,
        ..GatewayConfig::default()
    };
    let pool = WorkerPool::new(2);

    let quiet_request = || Request {
        tenant: "tenant-1".to_string(),
        priority: Priority::Interactive,
        kind: RequestKind::TraceQuery {
            warehouse: "T1_WH0".to_string(),
        },
    };

    // Run 1: noisy tenant-0 floods; quiet tenant-1 sends one request per
    // tick.
    let tenants = vec![tenant(SEED, 0, 1, 2), tenant(SEED, 1, 1, 2)];
    let mut gw = Gateway::new(SEED, config.clone(), tenants);
    gw.start(&pool, 2, DAY_MS);
    let unknown = gw.submit(Request {
        tenant: "tenant-99".to_string(),
        priority: Priority::Interactive,
        kind: RequestKind::TraceQuery {
            warehouse: "W".to_string(),
        },
    });
    assert_eq!(
        unknown,
        Admission::Shed {
            reason: ShedReason::UnknownTenant
        }
    );
    let mut quiet_all_admitted = true;
    for _ in 0..TICKS {
        for _ in 0..12 {
            gw.submit(Request {
                tenant: "tenant-0".to_string(),
                priority: Priority::Batch,
                kind: RequestKind::SubmitQuery {
                    warehouse: "T0_WH0".to_string(),
                    spec: QuerySpec::builder(0).work_ms_xs(30_000.0).build(),
                },
            });
        }
        quiet_all_admitted &= gw.submit(quiet_request()).is_admitted();
        gw.tick(&pool, 2);
    }
    let (report, stats) = gw.finish(&pool, 2);
    assert!(quiet_all_admitted, "quiet tenant was shed");
    assert!(
        stats.shed.rate_limited > 0 && stats.shed.quota_exhausted > 0,
        "noisy tenant should trip both limiters: {:?}",
        stats.shed
    );
    let quiet = report
        .tenants
        .iter()
        .find(|t| t.tenant == "tenant-1")
        .expect("quiet tenant reported");

    // Run 2: the quiet tenant alone, same request sequence — its shard
    // results must be bit-identical to run 1 (per-tenant meters, queues,
    // and name-derived seeds isolate it from the noisy neighbor).
    let mut solo = Gateway::new(SEED, config, vec![tenant(SEED, 1, 1, 2)]);
    solo.start(&pool, 2, DAY_MS);
    for _ in 0..TICKS {
        assert!(solo.submit(quiet_request()).is_admitted());
        solo.tick(&pool, 2);
    }
    let (solo_report, solo_stats) = solo.finish(&pool, 2);
    let solo_quiet = &solo_report.tenants[0];
    assert_eq!(
        quiet.estimated_savings.to_bits(),
        solo_quiet.estimated_savings.to_bits(),
        "noisy neighbor perturbed the quiet tenant's savings"
    );
    assert_eq!(
        quiet.actual_with_keebo.to_bits(),
        solo_quiet.actual_with_keebo.to_bits()
    );
    assert_eq!(quiet.ops.actions_applied, solo_quiet.ops.actions_applied);
    assert_eq!(solo_stats.shed.total(), 0, "solo quiet tenant never shed");
}
