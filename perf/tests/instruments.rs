//! The instruments must not change what they measure: a stepped drive is
//! the plain drive, and a decorated store is the bare store.

use cdw_sim::{WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS};
use keebo::{
    derive_stream_seed, ActionLogEntry, FileStore, KwoSetup, Orchestrator, StateStore, TenantSpec,
    WarehouseSpec,
};
use perf::instruments::{build_shard, span, Shard, ShardDriver, SharedTally, TimedStore};
use perf::trace::{layers, under, SharedTracer, Tracer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workload::{fleet_mix, generate_trace};

const SEED: u64 = 1009;
const TICK_MS: u64 = 30 * MINUTE_MS;
const OBSERVE_MS: u64 = DAY_MS;
const UNTIL_MS: u64 = 2 * DAY_MS;

/// One tenant of the `fleet_steady` shape: four light warehouses, one of
/// each archetype.
fn tenant() -> TenantSpec {
    let setup = KwoSetup {
        realtime_interval_ms: TICK_MS,
        onboarding_episodes: 2,
        refresh_episodes: 0,
        train_interval_ms: 30 * DAY_MS,
        ..KwoSetup::default()
    };
    let mut tenant = TenantSpec::new("tenant-0");
    for m in fleet_mix(1, 4, true) {
        let trace = generate_trace(
            m.generator.as_ref(),
            0,
            UNTIL_MS,
            derive_stream_seed(SEED, &m.warehouse),
        );
        tenant = tenant.add_warehouse(WarehouseSpec {
            name: m.warehouse,
            config: WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
            setup: setup.clone(),
            queries: trace.into(),
        });
    }
    tenant
}

/// A tracer on a counter clock: span times are meaningless but ordered.
fn counting_tracer() -> SharedTracer {
    let clock = Arc::new(AtomicU64::new(0));
    Tracer::new(
        Box::new(move || clock.fetch_add(1, Ordering::SeqCst)),
        Box::new(|| 0),
    )
    .shared()
}

fn lifecycle(driver: &mut ShardDriver, shard: &mut Shard) {
    driver.advance(shard, OBSERVE_MS);
    driver.onboard(shard);
    driver.advance(shard, UNTIL_MS);
}

type Fingerprint = Vec<(Vec<ActionLogEntry>, u64, u64)>;

/// Action log, billed-credit bits and savings bits of every warehouse.
fn fingerprint(shard: &Shard) -> Fingerprint {
    shard
        .kwo
        .optimizers()
        .iter()
        .map(|o| {
            let wh = shard.sim.account().warehouse_id(o.name()).unwrap();
            let credits = shard.sim.account().accrued_credits(wh, shard.sim.now());
            let savings = shard
                .kwo
                .savings_report(&shard.sim, o.name(), OBSERVE_MS, UNTIL_MS);
            (
                o.actuator().log().to_vec(),
                credits.to_bits(),
                savings.estimated_without_keebo.to_bits(),
            )
        })
        .collect()
}

#[test]
fn stepped_drive_is_bit_identical_to_single_run_until() {
    let tenant = tenant();
    let mut plain = build_shard(SEED, &tenant, None);
    lifecycle(&mut ShardDriver::plain(), &mut plain);

    let tracer = counting_tracer();
    let mut stepped = build_shard(SEED, &tenant, None);
    let mut driver = ShardDriver::stepped(tracer.clone(), 0, TICK_MS);
    lifecycle(&mut driver, &mut stepped);

    assert!(
        !fingerprint(&plain).iter().all(|f| f.0.is_empty()),
        "the optimizer acted"
    );
    assert_eq!(fingerprint(&plain), fingerprint(&stepped));
    assert_eq!(plain.sim.processed_events(), stepped.sim.processed_events());
    assert_eq!(plain.sim.now(), stepped.sim.now());

    // Every simulator event was seen by exactly one kind of span.
    assert_eq!(
        driver.events.advance + driver.events.boundary,
        stepped.sim.processed_events()
    );
    assert_eq!(driver.events.ticks, UNTIL_MS / TICK_MS);
    let guard = tracer.lock().unwrap();
    let by_name = layers(&guard.spans().iter().collect::<Vec<_>>());
    assert_eq!(by_name[span::TICK].count, UNTIL_MS / TICK_MS);
    assert_eq!(by_name[span::ONBOARD].count, 1);
    // One advance span per tick plus the tail of each of the two phases.
    assert_eq!(by_name[span::SIM].count, UNTIL_MS / TICK_MS + 2);
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journals the lifecycle into `store`, kills the orchestrator half a day
/// short of the end, restores it from `reopen()` and finishes.
fn durable_lifecycle(
    tenant: &TenantSpec,
    store: Box<dyn StateStore>,
    reopen: impl FnOnce() -> Box<dyn StateStore>,
) -> (Shard, (u64, u64, u64)) {
    let mut driver = ShardDriver::plain();
    let mut shard = build_shard(SEED, tenant, Some(store));
    driver.advance(&mut shard, OBSERVE_MS);
    driver.onboard(&mut shard);
    driver.advance(&mut shard, UNTIL_MS - 12 * HOUR_MS);
    let Shard {
        sim,
        kwo,
        warehouses,
    } = shard;
    drop(kwo);
    let mut reopened = reopen();
    let loaded = reopened.load().expect("store loads");
    let counts = (
        reopened.wal_records(),
        reopened.wal_bytes(),
        loaded.snapshot.map_or(0, |s| s.len() as u64),
    );
    let (kwo, stats) = Orchestrator::restore(reopened, &sim).expect("restore succeeds");
    assert_eq!(stats.wal_truncated_bytes, 0);
    let mut shard = Shard {
        sim,
        kwo,
        warehouses,
    };
    driver.advance(&mut shard, UNTIL_MS);
    (shard, counts)
}

#[test]
fn timed_store_is_transparent() {
    let tenant = tenant();
    let bare_dir = fresh_dir("store-bare");
    let timed_dir = fresh_dir("store-timed");
    let tally = SharedTally::default();
    let tracer = counting_tracer();

    let open_bare = || Box::new(FileStore::open(&bare_dir).unwrap()) as Box<dyn StateStore>;
    let open_timed = || {
        let file = FileStore::open(&timed_dir).unwrap();
        Box::new(TimedStore::new(
            file,
            tally.clone(),
            Some(tracer.clone()),
            0,
        )) as Box<dyn StateStore>
    };
    let (bare, bare_counts) = durable_lifecycle(&tenant, open_bare(), open_bare);
    let (timed, timed_counts) = durable_lifecycle(&tenant, open_timed(), open_timed);

    // Same decisions, same store accounting, same bytes on disk.
    assert_eq!(fingerprint(&bare), fingerprint(&timed));
    assert_eq!(bare_counts, timed_counts);
    assert!(bare_counts.0 > 0, "the kill left WAL records to replay");
    for file in ["wal.log", "snapshot.bin"] {
        let a = std::fs::read(bare_dir.join(file)).unwrap();
        let b = std::fs::read(timed_dir.join(file)).unwrap();
        assert!(!a.is_empty(), "{file} was written");
        assert_eq!(a, b, "{file} differs under the decorator");
    }

    // The decorator saw every operation, and recorded one span for each.
    let tally = tally.lock().unwrap();
    assert_eq!(tally.errors(), 0);
    // Two loads: the test's own and restore's; attach reads nothing.
    assert_eq!(tally.loads, 2);
    assert!(tally.snapshots >= 3, "attach, the daily cadence, restore");
    assert!(tally.sample_records.len() as u64 <= tally.appends);
    assert!(tally.last_snapshot.is_some());
    let guard = tracer.lock().unwrap();
    let by_name = layers(&guard.spans().iter().collect::<Vec<_>>());
    assert_eq!(by_name[span::APPEND].count, tally.appends);
    assert_eq!(by_name[span::SNAPSHOT].count, tally.snapshots);
    assert_eq!(by_name[span::LOAD].count, tally.loads);
    assert!(
        under(guard.spans(), span::ROUND).is_empty(),
        "no root was opened"
    );
}
