//! One benchmark run: set up, drive the workload for the run's seconds,
//! check the outputs, and assemble the metrics `BENCHMARK.json` names.
//!
//! An untraced run repeats the workload's plain drive and reports medians
//! over the repeats — the end-to-end metrics. A traced run alternates plain
//! and traced drives (their ratio is the tracing overhead, their digests
//! must agree), then runs the twins and probes that attribute the time to
//! layers — the per-layer metrics.

use crate::alloc;
use crate::calib::HostSpeed;
use crate::probes;
use crate::shape::{Kind, Shape};
use crate::workloads::{
    build_inputs, drive_fleet_api, drive_gateway, drive_shard_loop, gateway_span, Drive, Inputs,
    LoopOptions,
};
use cdw_sim::DAY_MS;
use keebo::WorkerPool;
use perf::catalog::Benchmark;
use perf::instruments::{span, SharedTally, StoreTally};
use perf::result::{Check, Manifest, MetricValue, RunResult, DEPS};
use perf::stats::{highest_supported_percentile, median};
use perf::trace::{layers, to_jsonl, under, Layer, SharedTracer, Span, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use telemetry::percentile;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Root span of a stepped twin (the store-less twin of `fleet_durable`, the
/// gateway-less twin of `gateway_serve`).
const TWIN_ROOT: &str = "twin";
/// Tenants the gateway's stepped twin drives.
const GATEWAY_TWIN_TENANTS: usize = 4;

/// Where traces, result files and store directories go: `perf/out/`, inside
/// the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn new_tracer() -> SharedTracer {
    let epoch = Instant::now();
    Tracer::new(
        Box::new(move || epoch.elapsed().as_nanos() as u64),
        Box::new(alloc::allocations),
    )
    .shared()
}

fn spans_of(tracer: &SharedTracer) -> Vec<Span> {
    tracer.lock().expect("tracer lock").spans().to_vec()
}

/// Everything a run needs that set-up produces.
struct Ready {
    inputs: Inputs,
    pool: WorkerPool,
    width: usize,
    work: PathBuf,
    /// Median wall of the set-ups, uncorrected.
    setup_s: f64,
    /// Host-speed samples, taken around the set-ups and after every drive.
    host: HostSpeed,
}

/// Generates the inputs, creates the work directory and warms the process
/// (pool threads, metric handles, code pages) with a small fleet — several
/// times over, reporting the median time, so that work a later change moves
/// into set-up shows and one slow set-up does not.
fn set_up(shape: &Shape, args: &RunArgs) -> Ready {
    let width = shape.pool_width.min(host_cpus()).max(1);
    let pool = WorkerPool::new(width);
    let work = out_dir().join(format!("work-{}", std::process::id()));
    let warm_shape = Shape::of("fleet_steady", true).expect("known workload");
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut inputs = None;
    // Only the untraced run's timings are corrected for host speed.
    let mut host = HostSpeed::default();
    if !args.traced {
        host.sample();
    }
    for _ in 0..repeats {
        let t0 = Instant::now();
        let built = build_inputs(shape, args.seed);
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("perf/out is writable");
        let warm = build_inputs(&warm_shape, args.seed);
        drive_fleet_api(&warm_shape, &warm, &pool, 1);
        times.push(t0.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    if !args.traced {
        host.sample();
    }
    Ready {
        inputs: inputs.expect("at least one set-up"),
        pool,
        width,
        work,
        setup_s: median(&times),
        host,
    }
}

/// One plain drive of the workload, as an untraced run times it.
fn plain_drive(shape: &Shape, ready: &Ready, round: usize) -> Drive {
    match shape.kind {
        Kind::Steady | Kind::Retrain => drive_fleet_api(shape, &ready.inputs, &ready.pool, 1),
        Kind::Durable => {
            let root = ready.work.join(format!("plain-{round}"));
            let drive = drive_shard_loop(
                shape,
                &ready.inputs,
                &LoopOptions {
                    tracer: None,
                    store_root: Some(&root),
                    root: span::ROUND,
                    tenants: shape.tenants,
                },
            );
            let _ = std::fs::remove_dir_all(&root);
            drive
        }
        Kind::Gateway => drive_gateway(shape, &ready.inputs, &ready.pool, ready.width, None),
    }
}

/// One traced drive: the same work under the stepped driver (fleets) or
/// with a span around each gateway call.
fn traced_drive(shape: &Shape, ready: &Ready, tracer: &SharedTracer, round: usize) -> Drive {
    match shape.kind {
        Kind::Gateway => {
            drive_gateway(shape, &ready.inputs, &ready.pool, ready.width, Some(tracer))
        }
        kind => {
            let root = ready.work.join(format!("traced-{round}"));
            let drive = drive_shard_loop(
                shape,
                &ready.inputs,
                &LoopOptions {
                    tracer: Some(tracer),
                    store_root: (kind == Kind::Durable).then_some(root.as_path()),
                    root: span::ROUND,
                    tenants: shape.tenants,
                },
            );
            let _ = std::fs::remove_dir_all(&root);
            drive
        }
    }
}

/// Warehouse-days one drive's timed wall covers: the whole horizon for the
/// fleets, the served ticks for the gateway (whose timed loop excludes the
/// observed day that `start` simulates).
fn timed_wh_days(shape: &Shape) -> f64 {
    match shape.kind {
        Kind::Gateway => {
            shape.warehouses() as f64 * (shape.until_ms - shape.observe_ms) as f64 / DAY_MS as f64
        }
        _ => shape.wh_days(),
    }
}

/// Operations attempted, and those that failed or were refused.
struct Tally {
    attempted: u64,
    failed: u64,
    refused: u64,
}

fn tally_of(drive: &Drive) -> Tally {
    match &drive.gateway {
        Some(g) => Tally {
            attempted: g.submitted,
            failed: g.stats.shed.unknown_tenant,
            refused: g.stats.shed.total() - g.stats.shed.unknown_tenant,
        },
        None => {
            let o = &drive.outcome;
            let restores = drive.restores.len() as u64 + drive.restore_errors;
            Tally {
                attempted: o.actions_applied
                    + o.actions_failed
                    + drive.store.operations()
                    + drive.store.errors()
                    + restores,
                failed: o.actions_failed + drive.store.errors() + drive.restore_errors,
                refused: 0,
            }
        }
    }
}

struct Checks(Vec<Check>);

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// The checks every drive of every workload must pass.
    fn drive(&mut self, shape: &Shape, drive: &Drive) {
        let f = drive.outcome.savings_fraction();
        self.add(
            "savings_fraction in [0, 1]",
            (0.0..=1.0).contains(&f),
            format!("{f}"),
        );
        self.add(
            "every warehouse ends Healthy",
            drive.outcome.all_healthy && drive.outcome.warehouses == shape.warehouses(),
            format!("{} warehouses reported", drive.outcome.warehouses),
        );
        if shape.kind == Kind::Durable {
            let torn: u64 = drive.restores.iter().map(|r| r.wal_truncated_bytes).sum();
            self.add(
                "every restore succeeds on an untorn WAL",
                drive.restore_errors == 0 && drive.restores.len() == shape.tenants && torn == 0,
                format!(
                    "{} restored, {} failed, {torn} bytes truncated",
                    drive.restores.len(),
                    drive.restore_errors
                ),
            );
            self.add(
                "no store operation fails",
                drive.store.errors() == 0,
                format!("{} errors", drive.store.errors()),
            );
        }
        if let Some(g) = &drive.gateway {
            let s = &g.stats;
            self.add(
                "admitted + shed == submitted",
                s.admitted + s.shed.total() == g.submitted,
                format!("{} + {} vs {}", s.admitted, s.shed.total(), g.submitted),
            );
            let dispatched = s.dispatched_interactive + s.dispatched_batch;
            self.add(
                "dispatched <= admitted",
                dispatched <= s.admitted,
                format!("{dispatched} vs {}", s.admitted),
            );
        }
    }
}

/// Digest of a drive: the outcome fold, plus the gateway's three digests.
fn digest_of(drive: &Drive) -> String {
    match &drive.gateway {
        Some(g) => format!(
            "{:016x}-{:016x}-{:016x}-{:016x}",
            drive.outcome.digest,
            g.fleet_digest,
            g.stats.decisions_digest,
            g.stats.responses_digest
        ),
        None => format!("{:016x}", drive.outcome.digest),
    }
}

fn detached_stores() -> u64 {
    keebo::obs::global().counter("keebo.store.detached").get()
}

pub fn run(bench: &Benchmark, args: &RunArgs) -> RunResult {
    let shape = Shape::of(&args.workload, args.smoke).expect("workload checked by the caller");
    alloc::set_counting(args.traced);
    let mut ready = set_up(&shape, args);
    let detached_before = detached_stores();

    let mut checks = Checks(Vec::new());
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut info: BTreeMap<String, f64> = BTreeMap::new();
    let budget = Duration::from_secs(args.seconds);
    let (tally, digest) = if args.traced {
        traced_run(
            &shape,
            args,
            &ready,
            budget,
            &mut values,
            &mut info,
            &mut checks,
        )
    } else {
        plain_run(
            &shape,
            args,
            &mut ready,
            budget,
            &mut values,
            &mut info,
            &mut checks,
        )
    };
    checks.add(
        "no store detached",
        detached_stores() == detached_before,
        format!("{} detaches", detached_stores() - detached_before),
    );
    let _ = std::fs::remove_dir_all(&ready.work);

    // The catalogue decides what is reported: every named metric, no other.
    let defs = bench.metrics_for(args.traced);
    let mut metrics = BTreeMap::new();
    for def in defs {
        match values.remove(def.name.as_str()) {
            Some(v) if v.is_finite() => {
                if !args.traced && v == 0.0 {
                    checks.add("end-to-end metrics are never 0", false, def.name.clone());
                }
                metrics.insert(
                    def.name.clone(),
                    MetricValue {
                        value: v,
                        unit: def.unit.clone(),
                    },
                );
            }
            other => checks.add(
                "every catalogue metric is measured",
                false,
                format!("{}: {other:?}", def.name),
            ),
        }
    }
    for extra in values.keys() {
        checks.add("no metric outside the catalogue", false, extra.to_string());
    }

    // JSON has no NaN or infinity: a ratio over nothing is left out.
    info.retain(|_, v| v.is_finite());
    RunResult {
        workload: args.workload.clone(),
        traced: args.traced,
        manifest: Manifest {
            git_sha: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            deps: DEPS.to_string(),
            host_cpus: host_cpus(),
            pool_width: ready.width,
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            sizes: shape.sizes(),
        },
        correct: checks.0.iter().all(|c| c.ok),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        digest,
        info,
        checks: checks.0,
    }
}

/// Repeats the plain drive while the next repeat is expected to fit in the
/// run's seconds (never under `--smoke`).
fn plain_run(
    shape: &Shape,
    args: &RunArgs,
    ready: &mut Ready,
    budget: Duration,
    values: &mut BTreeMap<&'static str, f64>,
    info: &mut BTreeMap<String, f64>,
    checks: &mut Checks,
) -> (Tally, String) {
    let t0 = Instant::now();
    let mut drives: Vec<Drive> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let drive = plain_drive(shape, ready, drives.len());
        ready.host.sample();
        let last = Duration::from_secs_f64(drive.wall_s);
        drives.push(drive);
        if drives.len() == 1 {
            // After set-up and one drive: how many drives fit in the run's
            // seconds depends on the host, and the heap's high-water mark
            // creeps with every repeat.
            peak_rss = peak_rss_mb();
        }
        if args.smoke || t0.elapsed() + last > budget {
            break;
        }
    }
    let first = &drives[0];
    checks.drive(shape, first);
    let digest = digest_of(first);
    checks.add(
        "every repeat of the drive has the same digest",
        drives.iter().all(|d| digest_of(d) == digest),
        format!("{} drives", drives.len()),
    );

    let wh_days = timed_wh_days(shape);
    let throughput: Vec<f64> = drives.iter().map(|d| wh_days / d.wall_s).collect();
    let steps: Vec<f64> = drives
        .iter()
        .flat_map(|d| d.step_ms.iter().copied())
        .collect();
    let tally = tally_of(first);
    // The three timings are in reference-host time (see `calib`); the wall
    // figures they come from are kept as `info raw.*`.
    let slowdown = ready.host.slowdown();
    // The median step, on the gateway too: its tick's p95 is what a client
    // sees, but over ten seeds it spreads by a third on the reference host,
    // wider than any bound; it is printed as `info` instead.
    let step = median(&steps);
    values.insert("setup_s", ready.setup_s / slowdown);
    values.insert("wh_days_per_s", median(&throughput) * slowdown);
    values.insert("step_ms", step / slowdown);
    info.insert("raw.setup_s".into(), ready.setup_s);
    info.insert("raw.wh_days_per_s".into(), median(&throughput));
    info.insert("raw.step_ms".into(), step);
    info.insert("host.kernel_ms".into(), ready.host.kernel_ms());
    info.insert("host.slowdown_x".into(), slowdown);
    values.insert("savings_fraction", first.outcome.savings_fraction());
    values.insert(
        "ok_share",
        (tally.attempted - tally.failed - tally.refused) as f64 / tally.attempted.max(1) as f64,
    );
    values.insert("peak_rss_mb", peak_rss);
    info.insert("peak_rss_mb.at_exit".into(), peak_rss_mb());

    info.insert("drives".into(), drives.len() as f64);
    info.insert("drive_s.first".into(), first.wall_s);
    info.insert("drive_s.median".into(), median_wall(&drives));
    info.insert("step_ms.samples".into(), steps.len() as f64);
    if let Some((p, v)) = highest_supported_percentile(&steps) {
        info.insert(format!("step_ms_p{p}"), v);
    }
    info.insert("queries".into(), ready.inputs.queries as f64);
    if let Some(stats) = &first.fleet_stats {
        info.insert("fleet.build_worker_s".into(), stats.build_secs);
        info.insert("fleet.drive_worker_s".into(), stats.drive_secs);
    }
    if let Some(g) = &first.gateway {
        info.insert("gateway.start_ms".into(), g.start_ms);
        info.insert("gateway.finish_ms".into(), g.finish_ms);
        info.insert("gateway.shed".into(), g.stats.shed.total() as f64);
        info.insert("tick_ms_p95".into(), percentile(&steps, 95.0));
        info.insert(
            "tenant_ticks_per_s".into(),
            (shape.tenants as u64 * shape.gateway_ticks) as f64 / median_wall(&drives),
        );
    }
    if shape.kind == Kind::Durable {
        let bytes = first.store.wal_payload_bytes + first.store.snapshot_bytes;
        info.insert("durable_bytes_per_wh_day".into(), bytes as f64 / wh_days);
    }
    (tally, digest)
}

fn median_wall(drives: &[Drive]) -> f64 {
    median(&drives.iter().map(|d| d.wall_s).collect::<Vec<_>>())
}

/// Durations of every span called `name`, in milliseconds.
fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

fn traced_run(
    shape: &Shape,
    args: &RunArgs,
    ready: &Ready,
    budget: Duration,
    values: &mut BTreeMap<&'static str, f64>,
    info: &mut BTreeMap<String, f64>,
    checks: &mut Checks,
) -> (Tally, String) {
    // Half the run's seconds go to plain/traced pairs of the drive, the
    // rest to the twin, the durability probe and the layer probes.
    let drive_budget = budget / 2;
    let t0 = Instant::now();
    let replay_counter = keebo::obs::global().counter("costmodel.replay.runs");
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut digests_agree = true;
    let (mut drive, tracer, replays) = loop {
        let round = plain_walls.len();
        // The first drive of a process is its slowest (cold heap and
        // caches). The traced drive goes first in even pairs, so a single
        // pair overstates the tracing overhead rather than hiding it, and
        // further pairs alternate so the bias cancels in the medians.
        let mut plain = (round % 2 == 1).then(|| plain_drive(shape, ready, round));
        let tracer = new_tracer();
        let replays_before = replay_counter.get();
        let traced = traced_drive(shape, ready, &tracer, round);
        let replays = replay_counter.get() - replays_before;
        let plain = plain
            .take()
            .unwrap_or_else(|| plain_drive(shape, ready, round));
        digests_agree &= digest_of(&plain) == digest_of(&traced);
        let pair = Duration::from_secs_f64(plain.wall_s + traced.wall_s);
        plain_walls.push(plain.wall_s);
        traced_walls.push(traced.wall_s);
        if args.smoke || t0.elapsed() + pair > drive_budget {
            break (traced, tracer, replays);
        }
    };
    checks.drive(shape, &drive);
    checks.add(
        "traced and plain drives have the same digest",
        digests_agree,
        format!("{} pairs", plain_walls.len()),
    );
    let digest = digest_of(&drive);
    let tally = tally_of(&drive);

    // The twin: `fleet_durable` without its stores (what journaling adds,
    // and that it changes nothing); `gateway_serve`'s first tenants under
    // the stepped driver (Gateway::tick is opaque from outside).
    let twin = match shape.kind {
        Kind::Durable | Kind::Gateway => Some(drive_shard_loop(
            shape,
            &ready.inputs,
            &LoopOptions {
                tracer: Some(&tracer),
                store_root: None,
                root: TWIN_ROOT,
                tenants: if shape.kind == Kind::Gateway {
                    GATEWAY_TWIN_TENANTS.min(shape.tenants)
                } else {
                    shape.tenants
                },
            },
        )),
        _ => None,
    };
    if shape.kind == Kind::Durable {
        let same = twin
            .as_ref()
            .is_some_and(|t| t.fingerprints == drive.fingerprints);
        checks.add(
            "action logs and credits match the store-less twin",
            same,
            format!("{} tenants", drive.fingerprints.len()),
        );
    }

    // The shard the probes harvest: tenant 0 of the traced drive, or of the
    // gateway's twin.
    let mut twin = twin;
    let harvested = drive
        .harvested
        .take()
        .or_else(|| twin.as_mut().and_then(|t| t.harvested.take()));
    let probe_tally = SharedTally::default();
    let mut failures = Vec::new();
    let (probed, probe_replayed) = match harvested {
        Some(shard) => probes::durability_probe(
            shape,
            shard,
            &ready.work.join("probe"),
            &tracer,
            &probe_tally,
            &mut failures,
        ),
        None => (None, 0),
    };
    let probe_store = probe_tally.lock().expect("tally lock").clone();
    // Codec probes prefer the drive's own payloads (`fleet_durable`).
    let codec_source = if drive.store.sample_records.is_empty() {
        &probe_store
    } else {
        &drive.store
    };
    let remaining = budget.saturating_sub(t0.elapsed()).max(budget / 10);
    let probe_budget = if args.smoke {
        Duration::from_millis(200)
    } else {
        remaining
    };
    match probed {
        Some(shard) => {
            let out = probes::run_probes(shape, args.seed, shard, codec_source, probe_budget);
            values.extend(out.metrics);
            info.extend(out.info);
            failures.extend(out.failures);
        }
        None => failures.push("no shard to harvest for the layer probes".into()),
    }
    checks.add(
        "layer probes ran clean",
        failures.is_empty(),
        failures.join("; "),
    );

    // ---- span arithmetic
    let spans = spans_of(&tracer);
    let round = under(&spans, span::ROUND);
    let in_round = layers(&round);
    let get =
        |l: &BTreeMap<&'static str, Layer>, name: &str| l.get(name).cloned().unwrap_or_default();
    let round_ns = get(&in_round, span::ROUND).total_ns.max(1) as f64;
    // Shard-level spans come from the drive itself on the fleets and from
    // the twin on the gateway.
    let twin_spans = under(&spans, TWIN_ROOT);
    let in_twin = layers(&twin_spans);
    let (shard_layers, shard_root, shard_events, shard_wh_days) = if shape.kind == Kind::Gateway {
        let t = twin.as_ref().expect("gateway twin ran");
        let tenants = GATEWAY_TWIN_TENANTS.min(shape.tenants);
        let wh_days =
            (tenants * shape.warehouses_per_tenant) as f64 * shape.until_ms as f64 / DAY_MS as f64;
        (&in_twin, TWIN_ROOT, t.events, wh_days)
    } else {
        (&in_round, span::ROUND, drive.events, shape.wh_days())
    };
    let shard_ns = get(shard_layers, shard_root).total_ns.max(1) as f64;
    let sim = get(shard_layers, span::SIM);
    let tick = get(shard_layers, span::TICK);
    let onboard = get(shard_layers, span::ONBOARD);
    let report = get(shard_layers, span::REPORT);
    let build = get(shard_layers, span::BUILD);
    let ns_to_f = |v: &[u64]| -> Vec<f64> { v.iter().map(|&n| n as f64).collect() };

    values.insert("cdw-sim.advance_share", sim.self_ns as f64 / shard_ns);
    values.insert("cdw-sim.events", shard_events.advance as f64);
    values.insert("cdw-sim.boundary_events", shard_events.boundary as f64);
    let per_event = 1.0 / shard_events.advance.max(1) as f64;
    values.insert("cdw-sim.ns_per_event", sim.self_ns as f64 * per_event);
    values.insert(
        "cdw-sim.allocs_per_event",
        sim.self_allocs as f64 * per_event,
    );

    let tick_ns = ns_to_f(&tick.durations_ns);
    values.insert("orchestrator.tick_us_p50", percentile(&tick_ns, 50.0) / 1e3);
    values.insert("orchestrator.tick_us_p99", percentile(&tick_ns, 99.0) / 1e3);
    values.insert("orchestrator.tick_share", tick.self_ns as f64 / shard_ns);
    values.insert("orchestrator.ticks", tick.count as f64);
    values.insert(
        "orchestrator.allocs_per_tick",
        tick.self_allocs as f64 / tick.count.max(1) as f64,
    );
    values.insert(
        "orchestrator.ctl_ms_per_wh_day",
        (onboard.self_ns + tick.self_ns + report.self_ns) as f64 / 1e6 / shard_wh_days,
    );
    // Ticks that fall on the retrain schedule, after onboarding.
    let cadence = shape.setup.realtime_interval_ms;
    let shard_spans = if shape.kind == Kind::Gateway {
        &twin_spans
    } else {
        &round
    };
    let retrain_ns: u64 = shard_spans
        .iter()
        .filter(|s| s.name == span::TICK)
        .filter(|s| {
            let at = (s.request & 0xFFFF_FFFF) * cadence;
            at > shape.observe_ms && at.is_multiple_of(shape.setup.train_interval_ms)
        })
        .map(|s| s.duration_ns())
        .sum();
    values.insert(
        "orchestrator.retrain_tick_share",
        retrain_ns as f64 / shard_ns,
    );
    values.insert(
        "orchestrator.onboard_ms_p50",
        percentile(&ns_to_f(&onboard.durations_ns), 50.0) / 1e6,
    );
    values.insert(
        "orchestrator.onboard_share",
        onboard.self_ns as f64 / shard_ns,
    );
    values.insert(
        "orchestrator.report_ms_p50",
        percentile(&ns_to_f(&report.durations_ns), 50.0) / 1e6,
    );
    values.insert(
        "orchestrator.report_share",
        report.self_ns as f64 / shard_ns,
    );
    values.insert("fleet.build_share", build.self_ns as f64 / shard_ns);
    values.insert(
        "orchestrator.actions_applied",
        drive.outcome.actions_applied as f64,
    );
    values.insert(
        "orchestrator.actions_failed",
        drive.outcome.actions_failed as f64,
    );

    // Restore and store: every such operation of the traced run — the
    // drive's (fleet_durable only) and the durability probe's.
    let restore_ms = durations_ms(&spans, span::RESTORE);
    values.insert("orchestrator.restore_ms_p50", percentile(&restore_ms, 50.0));
    values.insert(
        "orchestrator.restore_share",
        get(&in_round, span::RESTORE).self_ns as f64 / round_ns,
    );
    values.insert(
        "orchestrator.replayed_records",
        (drive
            .restores
            .iter()
            .map(|r| r.replayed_records)
            .sum::<u64>()
            + probe_replayed) as f64,
    );
    let mut all_store = StoreTally::default();
    all_store.absorb(&drive.store);
    all_store.absorb(&probe_store);
    let append_us: Vec<f64> = durations_ms(&spans, span::APPEND)
        .iter()
        .map(|m| m * 1e3)
        .collect();
    values.insert("store.append_us_p50", percentile(&append_us, 50.0));
    values.insert("store.append_us_p99", percentile(&append_us, 99.0));
    values.insert("store.appends", all_store.appends as f64);
    values.insert("store.wal_bytes", all_store.wal_payload_bytes as f64);
    values.insert(
        "store.write_snapshot_ms_p50",
        percentile(&durations_ms(&spans, span::SNAPSHOT), 50.0),
    );
    values.insert("store.snapshots", all_store.snapshots as f64);
    values.insert(
        "store.snapshot_bytes_max",
        all_store.snapshot_bytes_max as f64,
    );
    values.insert(
        "store.load_ms_p50",
        percentile(&durations_ms(&spans, span::LOAD), 50.0),
    );
    let store_ns: u64 = [span::APPEND, span::SNAPSHOT, span::LOAD]
        .iter()
        .map(|n| get(&in_round, n).total_ns)
        .sum();
    values.insert("store.share", store_ns as f64 / round_ns);
    values.insert("store.errors", all_store.errors() as f64);
    values.insert(
        "store.bytes_per_wh_day",
        (drive.store.wal_payload_bytes + drive.store.snapshot_bytes) as f64 / shape.wh_days(),
    );
    // What journaling adds to the ticks beyond the store calls themselves:
    // record building and encoding.
    let journal_ns = if shape.kind == Kind::Durable {
        tick.self_ns as f64 - get(&in_twin, span::TICK).self_ns as f64
    } else {
        0.0
    };
    values.insert("persist.journal_share", journal_ns / round_ns);

    // Gateway layers: zero wherever there is no gateway.
    let g_layer = |name: &str| get(&in_round, name);
    values.insert(
        "gateway.start_share",
        g_layer(gateway_span::START).total_ns as f64 / round_ns,
    );
    values.insert(
        "gateway.admit_share",
        g_layer(gateway_span::SUBMIT).total_ns as f64 / round_ns,
    );
    values.insert(
        "gateway.tick_share",
        g_layer(gateway_span::TICK).total_ns as f64 / round_ns,
    );
    values.insert(
        "gateway.finish_share",
        g_layer(gateway_span::FINISH).total_ns as f64 / round_ns,
    );
    let g_ticks = ns_to_f(&g_layer(gateway_span::TICK).durations_ns);
    let g_p50 = percentile(&g_ticks, 50.0);
    values.insert(
        "gateway.tick_tail_x",
        if g_p50 > 0.0 {
            percentile(&g_ticks, 95.0) / g_p50
        } else {
            0.0
        },
    );
    let (submitted, admitted, limited, full, wait_p99) = match &drive.gateway {
        Some(g) => {
            let requests: u64 = g.submit_requests.iter().sum();
            let submit_ns: f64 = g.submit_ms.iter().sum::<f64>() * 1e6;
            info.insert(
                "gateway.admit_ns_per_req".into(),
                submit_ns / requests.max(1) as f64,
            );
            info.insert("gateway.tick_ms_p50".into(), g_p50 / 1e6);
            info.insert(
                "gateway.tick_ms_p95".into(),
                percentile(&g_ticks, 95.0) / 1e6,
            );
            info.insert("gateway.start_ms".into(), g.start_ms);
            info.insert("gateway.finish_ms".into(), g.finish_ms);
            (
                g.submitted,
                g.stats.admitted,
                g.stats.shed.rate_limited,
                g.stats.shed.queue_full,
                percentile(&g.stats.wait_ticks_interactive, 99.0),
            )
        }
        None => (0, 0, 0, 0, 0.0),
    };
    values.insert("gateway.submitted", submitted as f64);
    values.insert("gateway.admitted", admitted as f64);
    values.insert("gateway.shed_rate_limited", limited as f64);
    values.insert("gateway.shed_queue_full", full as f64);
    values.insert("gateway.wait_p99_ticks_interactive", wait_p99);

    values.insert("costmodel.replay_runs", replays as f64);
    values.insert(
        "trace.overhead_x",
        median(&traced_walls) / median(&plain_walls),
    );
    let coverage = 1.0 - get(&in_round, span::ROUND).self_ns as f64 / round_ns;
    values.insert("trace.coverage", coverage);
    if shape.kind != Kind::Gateway {
        checks.add(
            "spans cover at least 95% of the traced drive",
            coverage >= 0.95,
            format!("{coverage:.4}"),
        );
    }

    info.insert("pairs".into(), plain_walls.len() as f64);
    info.insert("spans".into(), spans.len() as f64);
    info.insert("orchestrator.tick.samples".into(), tick.count as f64);
    info.insert(
        "orchestrator.restore.samples".into(),
        restore_ms.len() as f64,
    );
    info.insert("store.append.samples".into(), append_us.len() as f64);
    info.insert("traced_drive_s".into(), median(&traced_walls));
    info.insert("plain_drive_s".into(), median(&plain_walls));

    let file = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&file, to_jsonl(&spans)) {
        eprintln!("could not write {}: {e}", file.display());
    }
    (tally, digest)
}
