//! Builds each workload's inputs from the seed and drives it once — plain
//! (what a run times) or traced (spans around every layer boundary).
//!
//! The system only ever receives generated inputs: traces, tenant specs, a
//! request plan. Every stream derives from `(seed, name)`, so one seed is
//! one set of inputs, whatever the host or the pool width.

use crate::shape::{self, Kind, Shape};
use cdw_sim::{QuerySpec, DAY_MS, HOUR_MS};
use costmodel::SavingsReport;
use keebo::{
    derive_stream_seed, ActionLogEntry, FileStore, FleetController, FleetReport, FleetRunStats,
    Gateway, GatewayStats, HealthState, OpsKpis, Orchestrator, Priority, RecoveryStats, Request,
    RequestKind, Rule, RuleEffect, SliderPosition, TenantSpec, TimeWindow, WarehouseSpec,
    WorkerPool,
};
use perf::instruments::{
    build_shard, span, EventTally, Shard, ShardDriver, SharedTally, StoreTally, TimedStore,
};
use perf::trace::{in_span, request_id, SharedTracer};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::loadgen::{ClosedLoopDriver, LoadEvent, LoadOp, LoadPriority};
use workload::{fleet_mix, generate_trace, open_loop_plan, BiWorkload, EtlWorkload};

/// A workload's generated inputs.
pub struct Inputs {
    pub seed: u64,
    pub tenants: Vec<TenantSpec>,
    pub queries: usize,
    /// `gateway_serve`: the open-loop request plan and the tenant/warehouse
    /// names the closed-loop clients are built from.
    pub plan: Vec<LoadEvent>,
    pub names: Vec<(String, Vec<String>)>,
}

fn spec(shape: &Shape, name: String, queries: Vec<QuerySpec>) -> WarehouseSpec {
    WarehouseSpec {
        name,
        config: shape.config.clone(),
        setup: shape.setup.clone(),
        queries: queries.into(),
    }
}

pub fn build_inputs(shape: &Shape, seed: u64) -> Inputs {
    // Traces run one day past the horizon: the durability probe that ends a
    // traced run journals that extra day, and should journal real traffic.
    let trace_end = shape.until_ms + DAY_MS;
    let mut tenants: Vec<TenantSpec> = Vec::with_capacity(shape.tenants);
    let mut queries = 0;
    if shape.kind == Kind::Gateway {
        // `bench/gateway`'s fleet: ETL and BI warehouses alternating.
        for t in 0..shape.tenants {
            let mut tenant = TenantSpec::new(format!("tenant-{t}"));
            for w in 0..shape.warehouses_per_tenant {
                let name = format!("T{t}_WH{w}");
                let wh_seed = derive_stream_seed(seed, &name);
                let trace = if (t + w) % 2 == 0 {
                    let etl = EtlWorkload {
                        pipelines: 2,
                        queries_per_run: 2,
                        period_ms: 2 * HOUR_MS,
                        ..EtlWorkload::default()
                    };
                    generate_trace(&etl, 0, trace_end, wh_seed)
                } else {
                    let bi = BiWorkload {
                        dashboards: 2,
                        queries_per_refresh: 2,
                        peak_refreshes_per_hour: 4.0,
                        ..BiWorkload::default()
                    };
                    generate_trace(&bi, 0, trace_end, wh_seed)
                };
                queries += trace.len();
                tenant = tenant.add_warehouse(spec(shape, name, trace));
            }
            tenants.push(tenant);
        }
    } else {
        for m in fleet_mix(shape.tenants, shape.warehouses_per_tenant, shape.light) {
            let trace = generate_trace(
                m.generator.as_ref(),
                0,
                trace_end,
                derive_stream_seed(seed, &m.warehouse),
            );
            queries += trace.len();
            let wh = spec(shape, m.warehouse, trace);
            match tenants.last_mut() {
                Some(t) if t.name == m.tenant => t.warehouses.push(wh),
                _ => tenants.push(TenantSpec::new(m.tenant).add_warehouse(wh)),
            }
        }
    }
    let names: Vec<(String, Vec<String>)> = tenants
        .iter()
        .map(|t| {
            let whs = t.warehouses.iter().map(|w| w.name.clone()).collect();
            (t.name.clone(), whs)
        })
        .collect();
    let plan = if shape.kind == Kind::Gateway {
        open_loop_plan(
            seed,
            &names,
            shape.gateway_ticks,
            shape::GATEWAY_MEAN_REQUESTS_PER_TICK,
            shape::GATEWAY_INTERACTIVE_FRACTION,
        )
    } else {
        Vec::new()
    };
    Inputs {
        seed,
        tenants,
        queries,
        plan,
        names,
    }
}

/// What one drive decided and what it cost, folded for comparison: the
/// per-warehouse credit figures as bit patterns plus the action counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub digest: u64,
    pub estimated_without: f64,
    pub estimated_savings: f64,
    pub actions_applied: u64,
    pub actions_failed: u64,
    pub warehouses: usize,
    pub all_healthy: bool,
}

impl Default for Outcome {
    /// The empty fold: FNV-1a offset basis, nothing seen, nothing unhealthy.
    fn default() -> Self {
        Outcome {
            digest: 0xcbf2_9ce4_8422_2325,
            estimated_without: 0.0,
            estimated_savings: 0.0,
            actions_applied: 0,
            actions_failed: 0,
            warehouses: 0,
            all_healthy: true,
        }
    }
}

impl Outcome {
    fn eat(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn fold(&mut self, name: &str, savings: &SavingsReport, ops: &OpsKpis) {
        for b in name.bytes() {
            self.eat(b as u64);
        }
        self.eat(savings.estimated_without_keebo.to_bits());
        self.eat(savings.actual_with_keebo.to_bits());
        self.eat(ops.actions_applied as u64);
        self.eat(ops.rollbacks as u64);
        self.estimated_without += savings.estimated_without_keebo;
        self.estimated_savings += savings.estimated_savings;
        self.actions_applied += ops.actions_applied as u64;
        self.actions_failed += ops.actions_failed as u64;
        self.warehouses += 1;
        self.all_healthy &= ops.health == HealthState::Healthy;
    }

    pub fn of_report(report: &FleetReport) -> Self {
        let mut out = Outcome::default();
        for t in &report.tenants {
            for w in &t.warehouses {
                out.fold(&w.warehouse, &w.savings, &w.ops);
            }
        }
        out
    }

    pub fn savings_fraction(&self) -> f64 {
        if self.estimated_without > 0.0 {
            self.estimated_savings / self.estimated_without
        } else {
            0.0
        }
    }
}

/// Per-warehouse action log and billed-credit bits: what a store-less twin
/// must reproduce exactly.
pub type Fingerprint = Vec<(Vec<ActionLogEntry>, u64)>;

fn fingerprint(shard: &Shard) -> Fingerprint {
    shard
        .kwo
        .optimizers()
        .iter()
        .map(|o| {
            let wh = shard
                .sim
                .account()
                .warehouse_id(o.name())
                .expect("managed warehouse exists");
            let credits = shard.sim.account().accrued_credits(wh, shard.sim.now());
            (o.actuator().log().to_vec(), credits.to_bits())
        })
        .collect()
}

/// Everything one drive of a workload produced.
#[derive(Default)]
pub struct Drive {
    pub wall_s: f64,
    pub outcome: Outcome,
    /// Wall milliseconds of each of the workload's steps in this drive: a
    /// tenant's restore (`fleet_durable`), a `Gateway::tick`
    /// (`gateway_serve`), the mean control tick as the program itself
    /// times it (the fleet API drives). Empty for the store-less shard loop.
    pub step_ms: Vec<f64>,
    pub fleet_stats: Option<FleetRunStats>,
    pub events: EventTally,
    pub store: StoreTally,
    pub restores: Vec<RecoveryStats>,
    pub restore_errors: u64,
    pub gateway: Option<GatewayRun>,
    pub fingerprints: Vec<Fingerprint>,
    /// Tenant 0's shard as the drive left it, for the layer probes (own
    /// shard loops only; the fleet and gateway APIs keep theirs).
    pub harvested: Option<Shard>,
}

pub struct GatewayRun {
    pub stats: GatewayStats,
    pub submitted: u64,
    pub fleet_digest: u64,
    pub start_ms: f64,
    pub finish_ms: f64,
    /// Wall of each tick's submit loop, and the requests it submitted.
    pub submit_ms: Vec<f64>,
    pub submit_requests: Vec<u64>,
}

/// How the benchmark's own shard loop runs a fleet.
pub struct LoopOptions<'a> {
    /// `Some` records spans and steps the drive tick by tick.
    pub tracer: Option<&'a SharedTracer>,
    /// `Some` attaches one `FileStore` per tenant under this directory,
    /// kills every orchestrator at `shape.kill_ms` and restores it.
    pub store_root: Option<&'a Path>,
    /// Name of the root span a traced loop records under.
    pub root: &'static str,
    /// Drive only the first this-many tenants (a twin of part of a fleet).
    pub tenants: usize,
}

/// Control ticks the program has timed so far and their summed wall in
/// microseconds: its own exported `keebo.tick.wall_us` histogram, one
/// observation per warehouse per tick.
fn program_ticks() -> (u64, f64) {
    keebo::obs::global()
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "keebo.tick.wall_us")
        .map_or((0, 0.0), |h| (h.count, h.sum))
}

/// `FleetController::run_on_timed`: the plain drive of `fleet_steady` and
/// `fleet_retrain` (at width 1). The fleet call is opaque, so its step — one
/// control tick — is the program's own figure, not a share of the call's
/// wall: it leaves out shard build, the event loop, onboarding and the
/// report, and so does not repeat `wh_days_per_s`.
pub fn drive_fleet_api(shape: &Shape, inputs: &Inputs, pool: &WorkerPool, width: usize) -> Drive {
    let mut fleet = FleetController::new(inputs.seed);
    for t in &inputs.tenants {
        fleet.add_tenant(t.clone());
    }
    let (ticks_before, tick_us_before) = program_ticks();
    let t0 = Instant::now();
    let (report, stats) = fleet.run_on_timed(pool, shape.observe_ms, shape.until_ms, width);
    let wall_s = t0.elapsed().as_secs_f64();
    let (ticks, tick_us) = program_ticks();
    let mean_tick_ms = (tick_us - tick_us_before) / 1e3 / (ticks - ticks_before).max(1) as f64;
    Drive {
        wall_s,
        outcome: Outcome::of_report(&report),
        step_ms: vec![mean_tick_ms],
        fleet_stats: Some(stats),
        ..Drive::default()
    }
}

fn tenant_dir(root: &Path, tenant: usize) -> PathBuf {
    root.join(format!("tenant-{tenant}"))
}

fn open_store(
    dir: &Path,
    tally: &SharedTally,
    tracer: Option<&SharedTracer>,
    tenant: usize,
) -> Box<TimedStore<FileStore>> {
    let file = FileStore::open(dir).expect("benchmark store directory is writable");
    Box::new(TimedStore::new(
        file,
        tally.clone(),
        tracer.cloned(),
        tenant,
    ))
}

/// The benchmark's own shard loop, tenant after tenant on the calling
/// thread: build, observe, onboard, optimise (with a kill and restore in
/// the middle when a store is attached), report.
pub fn drive_shard_loop(shape: &Shape, inputs: &Inputs, opts: &LoopOptions) -> Drive {
    let tally = SharedTally::default();
    let mut outcome = Outcome::default();
    let mut events = EventTally::default();
    let mut step_ms = Vec::new();
    let mut restores = Vec::new();
    let mut restore_errors = 0;
    let mut fingerprints = Vec::new();
    let mut harvested = None;
    let tick_ms = shape.setup.realtime_interval_ms;

    let t0 = Instant::now();
    let round = opts
        .tracer
        .map(|t| t.lock().expect("tracer lock").enter(opts.root, 0));
    for (i, tenant) in inputs.tenants.iter().take(opts.tenants).enumerate() {
        let mut driver = match opts.tracer {
            Some(t) => ShardDriver::stepped(t.clone(), i, tick_ms),
            None => ShardDriver::plain(),
        };
        let dir = opts.store_root.map(|root| tenant_dir(root, i));
        let mut shard = driver.span(span::BUILD, 0, || {
            let store = dir
                .as_deref()
                .map(|d| open_store(d, &tally, opts.tracer, i) as Box<dyn keebo::StateStore>);
            build_shard(inputs.seed, tenant, store)
        });
        driver.advance(&mut shard, shape.observe_ms);
        driver.onboard(&mut shard);
        if let Some(dir) = &dir {
            driver.advance(&mut shard, shape.kill_ms);
            // A clean kill: the control plane dies between two ticks, the
            // warehouse side (the simulator) survives.
            let Shard {
                sim,
                kwo,
                warehouses,
            } = shard;
            drop(kwo);
            let t_restore = Instant::now();
            let restored = driver.span(span::RESTORE, shape.kill_ms / tick_ms, || {
                Orchestrator::restore(open_store(dir, &tally, opts.tracer, i), &sim)
            });
            step_ms.push(t_restore.elapsed().as_secs_f64() * 1e3);
            let kwo = match restored {
                Ok((kwo, stats)) => {
                    restores.push(stats);
                    kwo
                }
                Err(e) => {
                    eprintln!("restore of {} failed: {e}", tenant.name);
                    restore_errors += 1;
                    continue;
                }
            };
            shard = Shard {
                sim,
                kwo,
                warehouses,
            };
        }
        driver.advance(&mut shard, shape.until_ms);
        let reports = driver.report(&shard, shape.observe_ms, shape.until_ms);
        for (o, savings) in shard.kwo.optimizers().iter().zip(&reports) {
            outcome.fold(o.name(), savings, &OpsKpis::collect(o, shard.sim.now()));
        }
        events.advance += driver.events.advance;
        events.boundary += driver.events.boundary;
        events.ticks += driver.events.ticks;
        if opts.tracer.is_some() {
            fingerprints.push(fingerprint(&shard));
        }
        if i == 0 {
            harvested = Some(shard);
        }
    }
    if let (Some(t), Some(id)) = (opts.tracer, round) {
        t.lock().expect("tracer lock").exit(id);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let store = tally.lock().expect("tally lock").clone();
    Drive {
        wall_s,
        outcome,
        step_ms,
        events,
        store,
        restores,
        restore_errors,
        fingerprints,
        harvested,
        ..Drive::default()
    }
}

fn to_request(e: &LoadEvent) -> Request {
    let priority = match e.priority {
        LoadPriority::Interactive => Priority::Interactive,
        LoadPriority::Batch => Priority::Batch,
    };
    let warehouse = e.warehouse.clone();
    let kind = match &e.op {
        LoadOp::SubmitQuery { work_ms } => RequestKind::SubmitQuery {
            warehouse,
            spec: QuerySpec::builder(0).work_ms_xs(*work_ms).build(),
        },
        LoadOp::SetSlider { position } => RequestKind::SetSlider {
            warehouse,
            slider: match position {
                0 => SliderPosition::LowestCost,
                1 => SliderPosition::LowCost,
                2 => SliderPosition::Balanced,
                3 => SliderPosition::GoodPerformance,
                _ => SliderPosition::BestPerformance,
            },
        },
        LoadOp::EditConstraint => RequestKind::EditConstraint {
            warehouse,
            rule: Rule::new(
                "bench-no-suspend",
                TimeWindow::daily(8.0, 18.0),
                RuleEffect::NoSuspend,
            ),
        },
        LoadOp::TraceQuery => RequestKind::TraceQuery { warehouse },
    };
    Request {
        tenant: e.tenant.clone(),
        priority,
        kind,
    }
}

pub mod gateway_span {
    pub const START: &str = "gateway.start";
    pub const SUBMIT: &str = "gateway.submit";
    pub const TICK: &str = "gateway.tick";
    pub const FINISH: &str = "gateway.finish";
}

/// `gateway_serve`: the open-loop plan runs in virtual time (it does not
/// slow when the gateway does); the closed-loop clients react to each
/// admit or shed. The timed drive is the submit-and-tick loop; `start`
/// (build, observe, onboard) and `finish` (rollup) are timed apart.
pub fn drive_gateway(
    shape: &Shape,
    inputs: &Inputs,
    pool: &WorkerPool,
    width: usize,
    tracer: Option<&SharedTracer>,
) -> Drive {
    let timed = |name: &'static str, tick: u64, f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        match tracer {
            Some(t) => in_span(t, name, request_id(0, tick), f),
            None => f(),
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    let round = tracer.map(|t| t.lock().expect("tracer lock").enter(span::ROUND, 0));

    let mut gw = Gateway::new(inputs.seed, shape::gateway_config(), inputs.tenants.clone());
    let start_ms = timed(gateway_span::START, 0, &mut || {
        gw.start(pool, width, shape.observe_ms)
    });
    let mut clients = ClosedLoopDriver::new(
        inputs.seed,
        &inputs.names,
        shape::GATEWAY_CLIENTS_PER_TENANT,
        1,
        2,
    );
    let mut submitted = 0u64;
    let mut next = 0usize;
    let mut tick_ms = Vec::with_capacity(shape.gateway_ticks as usize);
    let mut submit_ms = Vec::with_capacity(shape.gateway_ticks as usize);
    let mut submit_requests = Vec::with_capacity(shape.gateway_ticks as usize);
    let t0 = Instant::now();
    for tick in 0..shape.gateway_ticks {
        let before = submitted;
        submit_ms.push(timed(gateway_span::SUBMIT, tick, &mut || {
            while next < inputs.plan.len() && inputs.plan[next].tick == tick {
                gw.submit(to_request(&inputs.plan[next]));
                submitted += 1;
                next += 1;
            }
            for e in clients.requests_for_tick(tick) {
                let client = e.client.unwrap_or_default();
                let admitted = gw.submit(to_request(&e)).is_admitted();
                clients.on_outcome(client, admitted, tick);
                submitted += 1;
            }
        }));
        submit_requests.push(submitted - before);
        tick_ms.push(timed(gateway_span::TICK, tick, &mut || {
            gw.tick(pool, width)
        }));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut finished = None;
    let mut gw = Some(gw);
    let finish_ms = timed(gateway_span::FINISH, shape.gateway_ticks, &mut || {
        finished = gw.take().map(|g| g.finish(pool, width));
    });
    if let (Some(t), Some(id)) = (tracer, round) {
        t.lock().expect("tracer lock").exit(id);
    }
    let (report, stats) = finished.expect("finish ran");
    Drive {
        wall_s,
        outcome: Outcome::of_report(&report),
        step_ms: tick_ms,
        gateway: Some(GatewayRun {
            stats,
            submitted,
            fleet_digest: report.digest(),
            start_ms,
            finish_ms,
            submit_ms,
            submit_requests,
        }),
        ..Drive::default()
    }
}
