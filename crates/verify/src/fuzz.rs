//! Deterministic structured fuzzer for the public `cdw-sim` API.
//!
//! A seed drives [`SplitMix64`] to a raw byte buffer (the *genome*); a
//! structured decoder turns the bytes into warehouse configs plus an
//! interleaved sequence of `ALTER WAREHOUSE` / query-submission /
//! clock-advance operations; a runner drives a real [`Simulator`] through
//! the sequence with the invariant [`Validator`] installed after every
//! event and the billing oracle checked at the end. Because every stage is
//! a pure function of the bytes, a failure reproduces from `(seed, bytes)`
//! alone, and shrinking works at the byte level: drop chunks / zero bytes,
//! re-decode, re-run, keep the transformation while the same failure kind
//! still fires.
//!
//! Grammar (see DESIGN.md "Verification" for the byte layout):
//!
//! ```text
//! case      := wh_count config{wh_count} op*
//! op        := submit | alter | advance        (opcode = byte % 16)
//! submit    := wh delay work affinity          (opcodes 0–8)
//! alter     := wh cmd                          (opcodes 9–13; cmd covers all
//!                                               six WarehouseCommand arms,
//!                                               invalid ranges included)
//! advance   := dt                              (opcodes 14–15)
//! ```
//!
//! Benign `AlterError`s (AlreadySuspended, AlreadyRunning, InvalidConfig)
//! are expected outcomes, not failures; failures are panics, invariant
//! violations, and oracle divergence.

use crate::invariants::{Validator, Violation};
use crate::oracle;
use crate::rng::{to_hex, SplitMix64};
use cdw_sim::{
    Account, ActionSource, AlterError, QuerySpec, ScalingPolicy, SimTime, Simulator,
    WarehouseCommand, WarehouseConfig, WarehouseSize, HOUR_MS,
};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// Auto-suspend settings the decoder picks from (ms); includes 0 (never).
const AUTO_SUSPEND_CHOICES_MS: [u64; 6] = [0, 30_000, 60_000, 120_000, 300_000, 600_000];

/// Fuzzer tuning knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Genome length in bytes per case.
    pub bytes_per_case: usize,
    /// Upper bound on decoded operations per case.
    pub max_ops: usize,
    /// Upper bound on candidate executions during shrinking.
    pub max_shrink_runs: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            bytes_per_case: 192,
            max_ops: 48,
            max_shrink_runs: 300,
        }
    }
}

/// One decoded operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzOp {
    /// Submit a query `delay_ms` after the current clock.
    Submit {
        wh: usize,
        delay_ms: u64,
        work_ms: f64,
        affinity: f64,
    },
    /// Apply an `ALTER WAREHOUSE` command now.
    Alter { wh: usize, cmd: WarehouseCommand },
    /// Advance the clock by `dt_ms`, processing due events.
    Advance { dt_ms: u64 },
}

/// A fully decoded fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    pub seed: u64,
    pub configs: Vec<WarehouseConfig>,
    pub ops: Vec<FuzzOp>,
}

/// How a case failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    Panic,
    Invariant,
    OracleDivergence,
}

/// A failing case, before or after shrinking.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    pub kind: FailureKind,
    pub message: String,
}

/// Statistics from a passing case.
#[derive(Debug, Clone, Default)]
pub struct CaseStats {
    pub ops_applied: usize,
    pub events_processed: u64,
    pub completed_queries: usize,
    pub total_credits: f64,
}

/// Shrunk reproduction artifact; serialized to `FUZZ_repro.json` by the
/// bench `fuzz` bin on failure.
#[derive(Debug, Clone, Serialize)]
pub struct FailureReport {
    pub seed: u64,
    pub kind: String,
    pub message: String,
    pub original_len: usize,
    pub shrunk_len: usize,
    /// Hex-encoded shrunk genome; decode with `rng::from_hex` and replay
    /// via `decode` + `run_case`.
    pub shrunk_bytes_hex: String,
    /// Human-readable decoded shrunk case.
    pub shrunk_case: String,
}

/// Campaign summary; the `fuzz` bin writes it to `BENCH_fuzz.json` (a CI
/// artifact, not a tracked file).
#[derive(Debug, Clone, Default, Serialize)]
pub struct CampaignReport {
    pub start_seed: u64,
    pub cases: usize,
    pub ops_applied: usize,
    pub events_processed: u64,
    pub completed_queries: usize,
    pub failure_count: usize,
    #[serde(skip)]
    pub failures: Vec<FailureReport>,
}

/// Expands a seed into the raw genome.
pub fn generate_bytes(seed: u64, len: usize) -> Vec<u8> {
    SplitMix64::new(seed).bytes(len)
}

/// Byte-stream cursor; yields 0 once exhausted so truncation during
/// shrinking degrades gracefully instead of changing earlier decisions.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn u8(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes([self.u8(), self.u8()])
    }
}

fn decode_config(c: &mut Cursor<'_>) -> WarehouseConfig {
    let size = WarehouseSize::ALL[c.u8() as usize % WarehouseSize::ALL.len()];
    let policy = match c.u8() % 3 {
        0 => ScalingPolicy::Standard,
        1 => ScalingPolicy::Economy,
        _ => ScalingPolicy::Maximized,
    };
    let mut min = 1 + (c.u8() % 3) as u32;
    let max = min + (c.u8() % 3) as u32;
    if policy == ScalingPolicy::Maximized {
        min = max;
    }
    let auto_ms = AUTO_SUSPEND_CHOICES_MS[c.u8() as usize % AUTO_SUSPEND_CHOICES_MS.len()];
    let concurrency = 1 + (c.u8() % 4) as u32;
    let mut cfg = WarehouseConfig::new(size)
        .with_policy(policy)
        .with_clusters(min, max)
        .with_max_concurrency(concurrency);
    cfg.auto_suspend_ms = auto_ms;
    cfg
}

fn decode_command(c: &mut Cursor<'_>) -> WarehouseCommand {
    match c.u8() % 6 {
        0 => WarehouseCommand::SetSize(WarehouseSize::ALL[c.u8() as usize % 10]),
        1 => WarehouseCommand::SetAutoSuspend {
            ms: AUTO_SUSPEND_CHOICES_MS[c.u8() as usize % AUTO_SUSPEND_CHOICES_MS.len()],
        },
        // Deliberately allows invalid ranges (min 0, min > max): the API
        // must reject them without side effects.
        2 => WarehouseCommand::SetClusterRange {
            min: (c.u8() % 5) as u32,
            max: (c.u8() % 5) as u32,
        },
        3 => WarehouseCommand::SetScalingPolicy(match c.u8() % 3 {
            0 => ScalingPolicy::Standard,
            1 => ScalingPolicy::Economy,
            _ => ScalingPolicy::Maximized,
        }),
        4 => WarehouseCommand::Suspend,
        _ => WarehouseCommand::Resume,
    }
}

/// Decodes a genome into a structured case. Total function: every byte
/// string decodes to a valid case (invalid *commands* are kept — exercising
/// rejection paths is part of the point — but warehouse *configs* are
/// always valid, since `create_warehouse` rejects invalid ones up front).
pub fn decode(seed: u64, bytes: &[u8], cfg: &FuzzConfig) -> FuzzCase {
    let mut c = Cursor::new(bytes);
    let wh_count = 1 + (c.u8() % 2) as usize;
    let configs = (0..wh_count).map(|_| decode_config(&mut c)).collect();
    let mut ops = Vec::new();
    while !c.exhausted() && ops.len() < cfg.max_ops {
        match c.u8() % 16 {
            0..=8 => ops.push(FuzzOp::Submit {
                wh: c.u8() as usize % wh_count,
                delay_ms: c.u16() as u64 * 7,
                work_ms: 500.0 + c.u16() as f64 * 40.0,
                affinity: (c.u8() % 11) as f64 / 10.0,
            }),
            9..=13 => ops.push(FuzzOp::Alter {
                wh: c.u8() as usize % wh_count,
                cmd: decode_command(&mut c),
            }),
            _ => ops.push(FuzzOp::Advance {
                dt_ms: c.u16() as u64 * 10,
            }),
        }
    }
    FuzzCase { seed, configs, ops }
}

/// Drives a real simulator through the case with invariants checked after
/// every event and the oracle checked at the end. Does NOT catch panics;
/// see [`run_case_catching`].
pub fn run_case(case: &FuzzCase) -> Result<CaseStats, CaseFailure> {
    let mut acc = Account::new();
    let ids: Vec<_> = case
        .configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| acc.create_warehouse(&format!("F{i}"), cfg.clone()))
        .collect();
    let mut sim = Simulator::new(acc);

    // Arc<Mutex> rather than Rc<RefCell>: the hook slot is `Send` so shards
    // can migrate across fleet pool workers, even though this case runs on
    // one thread.
    let violations: Arc<Mutex<Vec<Violation>>> = Arc::default();
    let sink = Arc::clone(&violations);
    sim.set_post_event_hook(move |account, now| {
        let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
        if sink.is_empty() {
            sink.extend(Validator::check_account(account, now));
        }
    });

    let mut stats = CaseStats::default();
    let mut next_query_id = 0u64;
    for op in &case.ops {
        if !violations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
        {
            break;
        }
        match *op {
            FuzzOp::Submit {
                wh,
                delay_ms,
                work_ms,
                affinity,
            } => {
                let spec = QuerySpec::builder(next_query_id)
                    .work_ms_xs(work_ms)
                    .cache_affinity(affinity)
                    .arrival_ms(sim.now() + delay_ms)
                    .build();
                next_query_id += 1;
                sim.submit_query(ids[wh], spec);
            }
            FuzzOp::Alter { wh, cmd } => {
                match sim.alter_warehouse(ids[wh], cmd, ActionSource::External) {
                    Ok(())
                    | Err(AlterError::AlreadySuspended)
                    | Err(AlterError::AlreadyRunning)
                    | Err(AlterError::InvalidConfig(_)) => {}
                    Err(e) => {
                        return Err(CaseFailure {
                            kind: FailureKind::Panic,
                            message: format!("unexpected alter error without faults: {e:?}"),
                        })
                    }
                }
            }
            FuzzOp::Advance { dt_ms } => {
                sim.run_until(sim.now() + dt_ms);
            }
        }
        stats.ops_applied += 1;
    }

    // Settle: drain in-flight work, then suspend everything so every open
    // billing session closes and the oracle sees the complete log.
    if violations
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_empty()
    {
        sim.run_until(sim.now() + 2 * HOUR_MS);
        for &id in &ids {
            let _ = sim.alter_warehouse(id, WarehouseCommand::Suspend, ActionSource::External);
        }
        let _: SimTime = sim.run_to_completion();
    }

    {
        let seen = violations.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = seen.first() {
            return Err(CaseFailure {
                kind: FailureKind::Invariant,
                message: format!("{v} (+{} more)", seen.len() - 1),
            });
        }
    }
    let final_violations = Validator::check_account(sim.account(), sim.now());
    if let Some(v) = final_violations.first() {
        return Err(CaseFailure {
            kind: FailureKind::Invariant,
            message: format!("final state: {v}"),
        });
    }

    let report = oracle::check_account(sim.account());
    if !report.is_clean() {
        return Err(CaseFailure {
            kind: FailureKind::OracleDivergence,
            message: format!(
                "max |diff| {:.3e}, first: {:?}",
                report.max_abs_diff,
                report.divergences.first()
            ),
        });
    }

    stats.events_processed = sim.processed_events();
    stats.completed_queries = sim.account().query_records().len();
    stats.total_credits = sim.account().ledger().total_credits();
    Ok(stats)
}

/// Drives the durable control plane's persistence decoders with the raw
/// genome bytes. The decoders advertise totality — arbitrary input yields a
/// value or an error, never a panic — and this probe holds them to it on
/// every fuzz case: the frame scanner over the whole genome, the
/// record/snapshot decoders and the section decoders
/// ([`agent::DqnAgent::from_bytes`], [`keebo::actuator::decode_log`],
/// [`keebo::persist::decode_ctl`]: the snapshot decoder leaves them to
/// restore) over the genome itself, the record decoder over the genome
/// behind the binary tick's magic (random bytes almost never start with
/// it), and the record decoder again over each checksum-valid payload the
/// scanner recovered.
pub fn probe_persist_decoders(bytes: &[u8]) -> Result<(), CaseFailure> {
    catch_unwind(AssertUnwindSafe(|| {
        let scan = keebo::scan_frames(bytes);
        assert!(
            scan.valid_bytes <= bytes.len(),
            "frame scanner overran its input"
        );
        for payload in &scan.payloads {
            let _ = keebo::persist::decode_record(payload);
        }
        let _ = keebo::persist::decode_record(bytes);
        let tick = [&keebo::persist::TICK_MAGIC[..], bytes].concat();
        let _ = keebo::persist::decode_record(&tick);
        let _ = keebo::persist::decode_snapshot(bytes);
        assert!(
            agent::DqnAgent::from_bytes(bytes).is_err(),
            "genome bytes decoded as an agent section"
        );
        let _ = keebo::actuator::decode_log(bytes);
        let _ = keebo::persist::decode_ctl(bytes);
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        CaseFailure {
            kind: FailureKind::Panic,
            message: format!("persist decoder panicked on genome bytes: {message}"),
        }
    })
}

/// Drives [`keebo::StoreFaultPlan::from_genome`] and a [`keebo::FaultyStore`]
/// over a `MemStore` under the decoded plan with the raw genome bytes. Three contracts, all
/// checked under `catch_unwind` so any panic becomes a shrinkable failure:
///
/// 1. genome decode is total and deterministic, and the advertised rate
///    caps hold for any input;
/// 2. the store is atomic under injected faults: a failed append stores
///    nothing, a failed snapshot replaces nothing — a simple in-probe model
///    (surviving appends, last landed snapshot) must match `load` exactly;
/// 3. a faulted `load` is always `ErrorKind::TimedOut` (the only injected
///    read failure), never corruption.
pub fn probe_store_fault_plan(bytes: &[u8]) -> Result<(), CaseFailure> {
    catch_unwind(AssertUnwindSafe(|| {
        use keebo::{FaultyStore, MemStore, StateStore, StoreFaultPlan};
        let plan = StoreFaultPlan::from_genome(bytes);
        assert!(plan.append_error_ppm <= 120_000, "append cap violated");
        assert!(plan.snapshot_error_ppm <= 500_000, "snapshot cap violated");
        assert!(plan.read_timeout_ppm <= 200_000, "read cap violated");
        assert_eq!(
            plan,
            StoreFaultPlan::from_genome(bytes),
            "genome decode must be deterministic"
        );

        let mut store = FaultyStore::new(MemStore::new(), plan);
        let mut model_wal: Vec<Vec<u8>> = Vec::new();
        let mut model_snapshot: Option<Vec<u8>> = None;
        for (i, chunk) in bytes.chunks(5).enumerate().take(64) {
            match chunk[0] % 4 {
                0 | 1 => {
                    let payload = vec![chunk[0], i as u8, 0xAB];
                    if store.append(&payload).is_ok() {
                        model_wal.push(payload);
                    }
                }
                2 => {
                    let snap = vec![i as u8; 1 + (chunk[0] as usize % 9)];
                    if store.write_snapshot(&snap).is_ok() {
                        model_snapshot = Some(snap);
                        model_wal.clear();
                    }
                }
                _ => match store.load() {
                    Ok(contents) => {
                        assert_eq!(contents.records, model_wal, "WAL diverged from model");
                        assert_eq!(
                            contents.snapshot, model_snapshot,
                            "snapshot diverged from model"
                        );
                        assert_eq!(contents.truncated_bytes, 0, "an in-memory WAL never tears");
                    }
                    Err(e) => assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut,
                        "only injected timeouts may fail a load"
                    ),
                },
            }
            assert_eq!(
                store.wal_records(),
                model_wal.len() as u64,
                "record count diverged from model"
            );
        }
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        CaseFailure {
            kind: FailureKind::Panic,
            message: format!("store fault-plan probe failed on genome bytes: {message}"),
        }
    })
}

/// [`run_case`] with panics converted into [`FailureKind::Panic`] failures.
pub fn run_case_catching(case: &FuzzCase) -> Result<CaseStats, CaseFailure> {
    match catch_unwind(AssertUnwindSafe(|| run_case(case))) {
        Ok(res) => res,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Err(CaseFailure {
                kind: FailureKind::Panic,
                message,
            })
        }
    }
}

/// Byte-level shrinking core: chunk removal at halving granularity, then a
/// zeroing pass, keeping any candidate for which `still_fails` holds.
/// Bounded by `max_runs` predicate evaluations; fully deterministic, so the
/// same failing genome always shrinks to the same result.
pub fn shrink_with(
    bytes: &[u8],
    mut still_fails: impl FnMut(&[u8]) -> bool,
    max_runs: usize,
) -> Vec<u8> {
    let mut runs = 0usize;
    let mut cur = bytes.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i + chunk <= cur.len() {
            if runs >= max_runs {
                return cur;
            }
            let mut cand = cur.clone();
            cand.drain(i..i + chunk);
            runs += 1;
            if still_fails(&cand) {
                cur = cand;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    for i in 0..cur.len() {
        if runs >= max_runs {
            break;
        }
        if cur[i] == 0 {
            continue;
        }
        let mut cand = cur.clone();
        cand[i] = 0;
        runs += 1;
        if still_fails(&cand) {
            cur = cand;
        }
    }
    cur
}

/// Shrinks a failing genome against the real pipeline: a candidate is kept
/// only while decode → run still fails with the same [`FailureKind`].
pub fn shrink_bytes(seed: u64, bytes: &[u8], kind: FailureKind, cfg: &FuzzConfig) -> Vec<u8> {
    shrink_with(
        bytes,
        |candidate| {
            matches!(
                run_case_catching(&decode(seed, candidate, cfg)),
                Err(f) if f.kind == kind
            )
        },
        cfg.max_shrink_runs,
    )
}

/// Runs one seed end to end: generate → decode → run → shrink on failure.
pub fn fuzz_one(seed: u64, cfg: &FuzzConfig) -> Result<CaseStats, FailureReport> {
    let bytes = generate_bytes(seed, cfg.bytes_per_case);
    if let Err(failure) = probe_persist_decoders(&bytes) {
        // Shrink against the probe alone: the simulator pipeline is not
        // involved in a decoder panic.
        let shrunk = shrink_with(
            &bytes,
            |candidate| probe_persist_decoders(candidate).is_err(),
            cfg.max_shrink_runs,
        );
        return Err(FailureReport {
            seed,
            kind: format!("{:?}", failure.kind),
            message: failure.message,
            original_len: bytes.len(),
            shrunk_len: shrunk.len(),
            shrunk_bytes_hex: to_hex(&shrunk),
            shrunk_case: "<persist decoder probe>".to_string(),
        });
    }
    if let Err(failure) = probe_store_fault_plan(&bytes) {
        // Likewise self-contained: shrink against the store probe alone.
        let shrunk = shrink_with(
            &bytes,
            |candidate| probe_store_fault_plan(candidate).is_err(),
            cfg.max_shrink_runs,
        );
        return Err(FailureReport {
            seed,
            kind: format!("{:?}", failure.kind),
            message: failure.message,
            original_len: bytes.len(),
            shrunk_len: shrunk.len(),
            shrunk_bytes_hex: to_hex(&shrunk),
            shrunk_case: "<store fault-plan probe>".to_string(),
        });
    }
    let case = decode(seed, &bytes, cfg);
    match run_case_catching(&case) {
        Ok(stats) => Ok(stats),
        Err(failure) => {
            let shrunk = shrink_bytes(seed, &bytes, failure.kind, cfg);
            let shrunk_case = decode(seed, &shrunk, cfg);
            // Re-run the shrunk case for the final message (it may differ
            // in detail from the original while keeping the same kind).
            let message = match run_case_catching(&shrunk_case) {
                Err(f) => f.message,
                Ok(_) => failure.message,
            };
            Err(FailureReport {
                seed,
                kind: format!("{:?}", failure.kind),
                message,
                original_len: bytes.len(),
                shrunk_len: shrunk.len(),
                shrunk_bytes_hex: to_hex(&shrunk),
                shrunk_case: format!("{shrunk_case:?}"),
            })
        }
    }
}

/// Fuzzes `cases` consecutive seeds starting at `start_seed`.
pub fn run_campaign(start_seed: u64, cases: usize, cfg: &FuzzConfig) -> CampaignReport {
    let mut report = CampaignReport {
        start_seed,
        ..CampaignReport::default()
    };
    for i in 0..cases {
        match fuzz_one(start_seed + i as u64, cfg) {
            Ok(stats) => {
                report.ops_applied += stats.ops_applied;
                report.events_processed += stats.events_processed;
                report.completed_queries += stats.completed_queries;
            }
            Err(failure) => report.failures.push(failure),
        }
        report.cases += 1;
    }
    report.failure_count = report.failures.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_is_total_on_arbitrary_bytes() {
        let cfg = FuzzConfig::default();
        for seed in 0..50u64 {
            let bytes = generate_bytes(seed, 64);
            let case = decode(seed, &bytes, &cfg);
            assert!(!case.configs.is_empty());
            for c in &case.configs {
                c.validate().expect("decoded config must be valid");
            }
        }
        // Degenerate genomes decode too.
        let empty = decode(0, &[], &cfg);
        assert_eq!(empty.configs.len(), 1);
        assert!(empty.ops.is_empty());
        let ones = decode(1, &[0xff; 7], &cfg);
        assert_eq!(ones.configs.len(), 2);
    }

    #[test]
    fn same_seed_same_case() {
        let cfg = FuzzConfig::default();
        let a = decode(9, &generate_bytes(9, cfg.bytes_per_case), &cfg);
        let b = decode(9, &generate_bytes(9, cfg.bytes_per_case), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn passing_cases_report_stats() {
        let cfg = FuzzConfig::default();
        let mut total_ops = 0;
        for seed in 0..10u64 {
            let case = decode(seed, &generate_bytes(seed, cfg.bytes_per_case), &cfg);
            let stats = run_case(&case)
                .unwrap_or_else(|f| panic!("seed {seed} failed: {:?} {}", f.kind, f.message));
            total_ops += stats.ops_applied;
        }
        assert!(total_ops > 0, "cases decoded to actual operations");
    }

    #[test]
    fn persist_decoder_probe_is_clean_on_genomes() {
        for seed in 0..200u64 {
            let bytes = generate_bytes(seed, 256);
            probe_persist_decoders(&bytes).expect("decoders are total on genome bytes");
        }
        probe_persist_decoders(&[]).expect("decoders are total on empty input");
        probe_persist_decoders(&[0xff; 512]).expect("decoders are total on saturated input");
    }

    #[test]
    fn store_fault_plan_probe_is_clean_on_genomes() {
        for seed in 0..200u64 {
            let bytes = generate_bytes(seed, 256);
            probe_store_fault_plan(&bytes).expect("faulty store must stay atomic and total");
        }
        probe_store_fault_plan(&[]).expect("probe is total on empty input");
        probe_store_fault_plan(&[0xff; 512]).expect("probe is total on saturated input");
    }

    #[test]
    fn shrinker_minimizes_synthetic_failure() {
        // Stand-in failure predicate pinned through the real pipeline: a
        // panic inside the runner is simulated by shrinking against a case
        // known to fail. We emulate one by asserting the shrinker respects
        // the kind filter — a case that never fails shrinks to itself.
        let cfg = FuzzConfig::default();
        let bytes = generate_bytes(3, 48);
        let out = shrink_bytes(3, &bytes, FailureKind::Panic, &cfg);
        assert_eq!(out, bytes, "healthy case must not shrink");
    }
}
