//! Layer probes: after a traced drive, each probe times one public
//! function of one layer on inputs harvested from the drive through public
//! accessors — the telemetry, cost model and history of tenant 0's first
//! warehouse, and the WAL and snapshot payloads the store decorator kept.
//!
//! A probe runs its function repeatedly for its slice of the probe budget
//! (fast functions in batches, so the clock is read once per batch) and
//! reports the median time per call.

use crate::alloc;
use crate::shape::{Kind, Shape};
use crate::workloads::{build_inputs, drive_fleet_api};
use agent::{
    reconstruct_specs, train_on_workload, AgentAction, ConstraintSet, DqnAgent, DqnConfig,
    EpisodeConfig, SliderPosition, Transition, STATE_DIM,
};
use cdw_sim::{QueryRecord, TelemetryFault, HOUR_MS};
use costmodel::{ReplayConfig, WarehouseCostModel};
use keebo::persist::{decode_record, decode_snapshot, encode_record, encode_snapshot};
use keebo::{FileStore, Orchestrator, WorkerPool};
use nn::{Adam, Mlp, MlpConfig};
use perf::instruments::{span, Shard, ShardDriver, SharedTally, StoreTally, TimedStore};
use perf::stats::median;
use perf::trace::{in_span, SharedTracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use telemetry::{percentile, TelemetryFetcher, TelemetryStore, WindowFeatures};

/// Root span of the durability probe.
const PROBE_ROOT: &str = "probe";

/// Simulated time the durability probe journals before the kill. Not a
/// whole number of snapshot intervals at either control cadence, so the
/// restore has WAL records to replay on top of the snapshot (traces extend
/// a day past the horizon, so the ticks see real traffic).
const PROBE_JOURNAL_MS: u64 = 20 * HOUR_MS;

/// Median nanoseconds per call of `f` over about `budget`, and the number
/// of timed samples behind it.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().as_nanos().max(1) as u64;
    // A call that alone outlasts the slice is its own (single) sample.
    if t0.elapsed() > budget {
        return (first as f64, 1);
    }
    // Batch fast calls so one sample is at least ~20 µs of work.
    let batch = (20_000 / first).clamp(1, 4096);
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || (Instant::now() < deadline && samples.len() < 100_000) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    (median(&samples), samples.len())
}

/// Allocations made by one call of `f`.
fn allocs_of(mut f: impl FnMut()) -> u64 {
    let before = alloc::allocations();
    f();
    alloc::allocations() - before
}

pub struct ProbeOutput {
    pub metrics: BTreeMap<&'static str, f64>,
    pub info: BTreeMap<String, f64>,
    /// Problems the probes found (a decode that failed, a re-encoding that
    /// differed); each is a failed correctness check.
    pub failures: Vec<String>,
}

/// The store-backed last leg every traced run ends with: attach a
/// `FileStore` (decorated, so its operations become spans) to the harvested
/// shard, journal twenty more simulated hours, kill the orchestrator and restore
/// it from the reopened store. On `fleet_durable` this repeats what the
/// drive did; on the other workloads it is the only time the store, codec
/// and restore paths run, on that workload's own models and traffic.
/// Returns the restored shard and the WAL records the restore replayed.
pub fn durability_probe(
    shape: &Shape,
    shard: Shard,
    dir: &Path,
    tracer: &SharedTracer,
    tally: &SharedTally,
    failures: &mut Vec<String>,
) -> (Option<Shard>, u64) {
    let open = || {
        let file = FileStore::open(dir).expect("benchmark store directory is writable");
        Box::new(TimedStore::new(
            file,
            tally.clone(),
            Some(tracer.clone()),
            0,
        ))
    };
    let tick_ms = shape.setup.realtime_interval_ms;
    in_span(tracer, PROBE_ROOT, 0, || {
        let mut shard = shard;
        let mut driver = ShardDriver::stepped(tracer.clone(), 0, tick_ms);
        shard.kwo.attach_store(open(), shard.sim.now());
        driver.advance(&mut shard, shape.until_ms + PROBE_JOURNAL_MS);
        let Shard {
            sim,
            kwo,
            warehouses,
        } = shard;
        drop(kwo);
        let restored = driver.span(span::RESTORE, sim.now() / tick_ms, || {
            Orchestrator::restore(open(), &sim)
        });
        match restored {
            Ok((kwo, stats)) => {
                if stats.wal_truncated_bytes != 0 {
                    failures.push("durability probe: a clean kill tore the WAL".into());
                }
                let shard = Shard {
                    sim,
                    kwo,
                    warehouses,
                };
                (Some(shard), stats.replayed_records)
            }
            Err(e) => {
                failures.push(format!("durability probe: restore failed: {e}"));
                (None, 0)
            }
        }
    })
}

/// A replay buffer's worth of plausible transitions.
fn fill_replay(agent: &mut DqnAgent, capacity: usize, rng: &mut StdRng) {
    for _ in 0..capacity {
        let mut state = vec![0.0; STATE_DIM];
        let mut next_state = vec![0.0; STATE_DIM];
        for (s, n) in state.iter_mut().zip(&mut next_state) {
            *s = rng.gen_range(-1.0..1.0);
            *n = rng.gen_range(-1.0..1.0);
        }
        agent.observe(Transition {
            state,
            action: rng.gen_range(0..AgentAction::COUNT),
            reward: rng.gen_range(-1.0..1.0),
            next_state,
            next_mask: [true; AgentAction::COUNT],
            terminal: false,
        });
    }
}

/// Runs every probe. `shard` is tenant 0 as the durability probe left it;
/// `store` is what the store decorators saw over the whole traced run.
pub fn run_probes(
    shape: &Shape,
    seed: u64,
    shard: Shard,
    store: &StoreTally,
    budget: Duration,
) -> ProbeOutput {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut info: BTreeMap<String, f64> = BTreeMap::new();
    let mut failures = Vec::new();
    let slice = budget / 18;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE5_0BE5);
    // Times `f` and files the median under `name`, in units of `scale` ns.
    macro_rules! probe {
        ($name:expr, $scale:expr, $budget:expr, $f:expr $(,)?) => {{
            let (ns, samples) = time_ns($budget, $f);
            m.insert($name, ns / $scale);
            info.insert(format!("{}.samples", $name), samples as f64);
        }};
    }

    // --- workload: regenerate this workload's inputs.
    let t0 = Instant::now();
    let inputs = build_inputs(shape, seed);
    let gen_s = t0.elapsed().as_secs_f64();

    // --- harvested inputs: tenant 0's first warehouse.
    let optimizer = &shard.kwo.optimizers()[0];
    let name = optimizer.name().to_string();
    let history: Vec<QueryRecord> = optimizer.store().queries(&name).to_vec();
    let original = optimizer.original_config().clone();
    let cost_model = optimizer.cost_model().clone();
    let now = shard.sim.now();
    info.insert("probe.history_records".into(), history.len() as f64);

    // --- telemetry
    let tick_ms = shape.setup.realtime_interval_ms;
    // The busiest control interval of the history (the first, on a tie):
    // the last one is usually empty, and an empty window times nothing.
    let mut per_interval: BTreeMap<u64, usize> = BTreeMap::new();
    for r in &history {
        *per_interval.entry(r.arrival / tick_ms).or_default() += 1;
    }
    let busiest = per_interval
        .iter()
        .max_by_key(|(&i, &n)| (n, std::cmp::Reverse(i)))
        .map_or(0, |(&i, _)| i * tick_ms);
    let window: Vec<&QueryRecord> = optimizer
        .store()
        .queries_in(&name, busiest, busiest + tick_ms)
        .iter()
        .collect();
    info.insert("probe.window_records".into(), window.len() as f64);
    probe!("telemetry.window_features_us", 1e3, slice, || {
        black_box(WindowFeatures::compute(
            black_box(&window),
            busiest,
            tick_ms,
        ));
    });

    // --- costmodel
    probe!("costmodel.train_ms", 1e6, slice, || {
        black_box(WarehouseCostModel::train(
            black_box(&history),
            0,
            now,
            original.max_concurrency,
            original.max_clusters,
        ));
    });
    let replay_cfg = ReplayConfig {
        original: original.clone(),
        window_start: shape.observe_ms,
        window_end: shape.until_ms,
    };
    let replayed = cost_model.replay(&history, &replay_cfg).replayed_queries;
    probe!(
        "costmodel.replay_ns_per_record",
        replayed.max(1) as f64,
        slice,
        || {
            black_box(cost_model.replay(black_box(&history), &replay_cfg));
        },
    );

    // --- nn: the default DQN's network shape.
    let config = DqnConfig::default();
    let mut layers = vec![STATE_DIM];
    layers.extend(&config.hidden);
    layers.push(AgentAction::COUNT);
    let mut net = Mlp::new(MlpConfig::new(layers), &mut rng);
    let input: Vec<f64> = (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let out_grad: Vec<f64> = (0..AgentAction::COUNT)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    probe!("nn.forward_ns", 1.0, slice, || {
        black_box(net.forward(black_box(&input)));
    });
    let trace = net.forward_trace(&input);
    probe!("nn.backward_ns", 1.0, slice, || {
        black_box(net.backward(black_box(&trace), black_box(&out_grad)));
    });
    let grads = net.backward(&trace, &out_grad);
    let mut adam = Adam::new(config.learning_rate, net.optimizer_slots());
    probe!("nn.adam_step_us", 1e3, slice, || {
        net.apply_gradients(black_box(&grads), &mut adam);
    });
    let train_allocs = allocs_of(|| {
        let trace = net.forward_trace(&input);
        black_box(net.backward(&trace, &out_grad));
    });

    // --- agent
    let mut dqn = DqnAgent::new(config.clone(), &mut rng);
    let mask = [true; AgentAction::COUNT];
    probe!("agent.select_action_ns", 1.0, slice, || {
        black_box(dqn.select_action(black_box(&input), &mask, &mut rng, false));
    });
    fill_replay(&mut dqn, config.replay_capacity, &mut rng);
    probe!("agent.train_step_us", 1e3, slice, || {
        black_box(dqn.train_step(&mut rng));
    });
    let from = now.saturating_sub(shape.setup.train_window_ms);
    let recent: Vec<QueryRecord> = history
        .iter()
        .filter(|r| r.arrival >= from)
        .cloned()
        .collect();
    probe!("agent.reconstruct_specs_ms", 1e6, slice, || {
        black_box(reconstruct_specs(black_box(&recent), &cost_model.latency));
    });
    let mut specs = reconstruct_specs(&recent, &cost_model.latency);
    let first = specs.iter().map(|s| s.arrival).min().unwrap_or(0);
    for s in &mut specs {
        s.arrival -= first;
    }
    info.insert("probe.episode_specs".into(), specs.len() as f64);
    let constraints = ConstraintSet::new();
    let mut episode_agent = DqnAgent::new(config.clone(), &mut rng);
    probe!("agent.episode_ms", 1e6, slice * 2, || {
        black_box(train_on_workload(
            &mut episode_agent,
            &specs,
            &original,
            SliderPosition::Balanced,
            &constraints,
            &EpisodeConfig {
                decision_interval_ms: tick_ms,
                ..EpisodeConfig::default()
            },
            1,
            seed,
        ));
    });

    // --- persist: the payloads the store decorators kept.
    let records = &store.sample_records;
    let mut decoded = Vec::with_capacity(records.len());
    for bytes in records {
        match decode_record(bytes) {
            Ok(r) => decoded.push(r),
            Err(e) => failures.push(format!("captured WAL record does not decode: {e}")),
        }
    }
    if decoded.len() == records.len() && !records.is_empty() {
        let reencoded_same = decoded
            .iter()
            .zip(records)
            .all(|(r, bytes)| encode_record(r).is_ok_and(|b| &b == bytes));
        if !reencoded_same {
            failures.push("a WAL record re-encodes to different bytes".into());
        }
        let n = records.len() as f64;
        probe!("persist.decode_record_us", 1e3 * n, slice, || {
            for bytes in records {
                black_box(decode_record(black_box(bytes)).ok());
            }
        });
        probe!("persist.encode_record_us", 1e3 * n, slice, || {
            for r in &decoded {
                black_box(encode_record(black_box(r)).ok());
            }
        });
        let sizes: Vec<f64> = records.iter().map(|b| b.len() as f64).collect();
        m.insert("persist.record_bytes_p50", percentile(&sizes, 50.0));
        let allocs = allocs_of(|| {
            for bytes in records {
                black_box(decode_record(bytes).ok().map(|r| encode_record(&r)));
            }
        });
        m.insert("persist.allocs_per_record", allocs as f64 / n);
    } else {
        failures.push("the store decorator captured no WAL records".into());
    }
    match store
        .last_snapshot
        .as_deref()
        .map(|b| (b, decode_snapshot(b)))
    {
        Some((bytes, Ok(snapshot))) => {
            if encode_snapshot(&snapshot).map_or(true, |b| b != bytes) {
                failures.push("the snapshot re-encodes to different bytes".into());
            }
            probe!("persist.decode_snapshot_ms", 1e6, slice, || {
                black_box(decode_snapshot(black_box(bytes)).ok());
            });
            probe!("persist.encode_snapshot_ms", 1e6, slice, || {
                black_box(encode_snapshot(black_box(&snapshot)).ok());
            });
            info.insert("probe.snapshot_bytes".into(), bytes.len() as f64);
        }
        Some((_, Err(e))) => failures.push(format!("captured snapshot does not decode: {e}")),
        None => failures.push("the store decorator captured no snapshot".into()),
    }

    // --- pool: dispatch cost per (empty) ticket, and what a second worker buys.
    let pool = WorkerPool::new(2);
    for (name, width) in [
        ("pool.dispatch_us_per_ticket_w1", 1),
        ("pool.dispatch_us_per_ticket_w2", 2),
    ] {
        probe!(name, 1e3 * 10_000.0, slice / 2, || {
            pool.run_indexed(10_000, width, |i| {
                black_box(i);
            });
        });
    }

    // --- obs and pool scaling, on a smoke-size fleet_steady.
    let small = Shape::of("fleet_steady", true).expect("known workload");
    let small_inputs = build_inputs(&small, seed);
    // Median of three drives each, or a single drive when the budget is a
    // smoke run's.
    let repeats = if budget < Duration::from_secs(1) {
        1
    } else {
        3
    };
    let timed_small = |width: usize| {
        let samples: Vec<f64> = (0..repeats)
            .map(|_| drive_fleet_api(&small, &small_inputs, &pool, width).wall_s)
            .collect();
        median(&samples)
    };
    let w1 = timed_small(1);
    let w2 = timed_small(2);
    m.insert("pool.scale2_x", w1 / w2);
    keebo::obs::global().set_enabled(false);
    let off = timed_small(1);
    keebo::obs::global().set_enabled(true);
    m.insert("obs.registry_overhead_x", w1 / off);
    probe!("obs.snapshot_us", 1e3, slice / 2, || {
        let snapshot = keebo::obs::global().snapshot();
        black_box(keebo::obs::prometheus_text(&snapshot));
    });

    // --- telemetry ingest last: it charges fetch overhead to the account.
    let Shard { sim, kwo, .. } = shard;
    drop(kwo);
    let mut account = sim.into_account();
    let telemetry_records = account.query_records().len() + account.event_records().len();
    probe!(
        "telemetry.ingest_ns_per_record",
        telemetry_records.max(1) as f64,
        slice,
        || {
            let mut fetcher = TelemetryFetcher::new();
            let mut store = TelemetryStore::new();
            black_box(
                fetcher
                    .fetch(&mut account, &mut store, now, TelemetryFault::None)
                    .ok(),
            );
        },
    );

    m.insert("telemetry.records", telemetry_records as f64);
    m.insert("nn.allocs_per_train_sample", train_allocs as f64);
    m.insert("nn.params", net.parameter_count() as f64);
    m.insert("workload.queries", inputs.queries as f64);
    m.insert("workload.gen_queries_per_s", inputs.queries as f64 / gen_s);
    if shape.kind == Kind::Gateway {
        info.insert("probe.gateway_plan_events".into(), inputs.plan.len() as f64);
    }
    ProbeOutput {
        metrics: m,
        info,
        failures,
    }
}
