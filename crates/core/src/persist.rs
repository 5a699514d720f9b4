//! Persisted record and snapshot types for the durable control plane.
//!
//! The orchestrator appends one [`PersistRecord`] per control event to its
//! [`crate::store::StateStore`] and periodically writes a full
//! [`SnapshotState`]. Recovery (`Orchestrator::restore`) loads the snapshot
//! and replays the log, and writes nothing: the journal resumes the
//! snapshot's age (the ticks the WAL spans), so compaction keeps the
//! schedule of the run that crashed:
//!
//! * every `Tick` record carries the *post*-tick control state — the
//!   [`CtlState`] the optimizer holds, encoded in place — assigned back after replaying
//!   the tick's side effects, so the RNG, cursors, and backoff schedules
//!   land exactly where they were. It is state only: what the admin set
//!   ([`KwoSetup`]) is journaled once by `Manage` and then by
//!   `SliderChanged` / `ConstraintAdded`, never per tick;
//! * what grows with a warehouse's age stays out of that state (format v8):
//!   the spike detector's window of up to 288 arrival counts is the
//!   optimizer's [`Monitor`], a tick journals the one count it appended
//!   ([`TickEffects::arrivals`]) and the snapshot the whole window, so a
//!   tick record is the same size on day 1 and day 300;
//! * nondeterministic inputs that recovery cannot re-derive are logged
//!   explicitly: the training seed drawn from the learning RNG, the episode
//!   count in force at the time (onboarding vs refresh), and the admin's
//!   expected config at resume time. A live tick trains nothing and observes
//!   nothing into the agent (format v9): the DQN learns only in a retrain's
//!   episodes, from a replay ring that lives for that retrain, so neither a
//!   tick record nor the agent section carries a transition. Nor does the
//!   agent section carry the rest of that retrain's learner (format v10):
//!   the target network and the Adam moments are built with the ring and
//!   dropped with it, so between retrains, when snapshots are taken, the
//!   agent is its online network, config and counters;
//! * side effects already applied to the surviving simulator/warehouse
//!   (fetch overhead charges, ALTER statements) are *not* re-run — replay
//!   re-ingests telemetry by cursor range and re-trains models, but never
//!   touches the account;
//! * telemetry itself is never persisted: the account stream survives, so
//!   [`CtlState`] keeps the fetcher cursors and both restore paths (a
//!   snapshot's `0..cursor`, a `Tick`'s range) re-deliver from the stream.
//!
//! Two encodings, split by what traced `fleet_durable` runs measured. What
//! every tick writes and every restore reads is binary, in `nn::le`
//! (fixed-width little-endian, every `f64` as its bits — exact for NaN
//! payloads and `-0.0` too, by construction): the `Tick` record (format
//! v12), nearly every WAL append, and per optimizer three sections of the
//! snapshot's `KWSN` envelope — its agent (whose printing and parsing was
//! most of what a snapshot cost), its action log (then most of what a
//! restore cost, format v11) and its control state (v12: the JSON tick
//! records a restore replays, each a whole [`CtlState`], were then 58 % of
//! it). [`encode_ctl`] is the control state's one encoding, in the tick and
//! in the snapshot; `agent` and [`crate::actuator`] write and read their own
//! sections, which this module frames and never looks inside. The rare
//! records (`Genesis`, `Manage` and the admin's three) and the snapshot's
//! body (setup, cost model, spike window) stay serde JSON: self-describing,
//! byte-exact for finite floats, and spread over types that change often
//! (DESIGN.md, "Durability").

use crate::actuator::{self, read_u32, tagged, ActionLogEntry, POLICIES};
use crate::drng::DetRng;
use crate::health::{HealthMonitor, HealthState};
use crate::monitoring::Monitor;
use crate::orchestrator::KwoSetup;
use crate::reconciler::Reconciler;
use agent::{AgentAction, Rule, SliderPosition};
use cdw_sim::{SimTime, WarehouseConfig, WarehouseSize};
use costmodel::WarehouseCostModel;
use nn::le::{self, Reader};
use serde::{Deserialize, Serialize};
use telemetry::{FetchStats, TelemetryFetcher};

/// Bumped on any incompatible change to the persisted schema. Decode
/// refuses every other version: no store outlives its process here, so
/// there is no dual decode.
pub const FORMAT_VERSION: u32 = 12;

/// Magic prefix of the snapshot envelope, the only snapshot format: bytes
/// that do not start with it are not a snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"KWSN";

/// Magic prefix of a binary `Tick` record. Every other record is a JSON
/// object, which cannot start with it.
pub const TICK_MAGIC: [u8; 4] = *b"KWTK";

/// Why persisted state could not be decoded or applied.
#[derive(Debug)]
pub enum PersistError {
    /// Storage-layer failure (open, read, torn snapshot).
    Io(std::io::Error),
    /// Payload bytes did not decode as the expected record/snapshot type.
    Codec(String),
    /// Decoded state is internally inconsistent or does not match the
    /// simulator it is being restored against.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "state store io error: {e}"),
            PersistError::Codec(m) => write!(f, "state decode error: {m}"),
            PersistError::Corrupt(m) => write!(f, "persisted state corrupt: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The control state of one optimizer — Algorithm 1's loop state: every
/// mutable scalar, cursor and sub-machine the decision loop reads, the
/// learning RNG included. [`crate::WarehouseOptimizer`] *holds* one of these
/// and the tick mutates it in place, so journaling a tick clones it and
/// replaying one assigns it back: the optimizer lands exactly where the
/// original left off. State only — what the admin set lives in
/// [`KwoSetup`], and fixed tuning lives in module constants. Persisted by
/// [`encode_ctl`] alone.
#[derive(Debug, Clone)]
pub struct CtlState {
    /// The most recently observed configuration (feeds training).
    pub expected_config: WarehouseConfig,
    /// Onboarding completed (a warm-restored optimizer never re-onboards).
    pub onboarded: bool,
    pub last_train: SimTime,
    pub last_action: Option<AgentAction>,
    /// What the next policy tick's reward reads.
    pub reward_basis: RewardBasis,
    /// External-change pause (§4.4), until this time or an admin resume.
    pub paused_until: Option<SimTime>,
    /// Warehouse events before this time have already been scanned for
    /// external changes; advances only when a fetch succeeds, so events
    /// delivered late (after an outage) are still inspected.
    pub events_cursor: SimTime,
    /// The most recent configuration under which performance was healthy
    /// (latency near baseline, no queue buildup). Back-off rolls back to
    /// this — "roll back the previous settings of the warehouse" (§4.3).
    pub last_good_config: Option<WarehouseConfig>,
    /// Auto-suspend setting computed analytically at the last training
    /// (idle cost vs cold-restart cost, §3); applied at the next tick.
    pub pending_auto_suspend: Option<SimTime>,
    /// Consecutive healthy ticks; sustained health decays any capacity
    /// held above the customer's original configuration.
    pub healthy_streak: u32,
    /// The learning RNG.
    pub rng: DetRng,
    /// Serving p99 (ms) from the last training, monitoring's latency
    /// baseline. The spike detector's window is not here: it is the
    /// optimizer's [`Monitor`], journaled one count a tick.
    pub baseline_p99_ms: f64,
    pub fetcher: TelemetryFetcher,
    pub reconciler: Reconciler,
    pub health: HealthMonitor,
}

impl CtlState {
    /// The state of a freshly managed optimizer observing `config`. `rng`
    /// is the learning stream (already past the agent's initialisation
    /// draws); the reconciler's jitter stream is seeded apart from it, so
    /// adding or removing retries never perturbs training randomness.
    pub(crate) fn new(config: WarehouseConfig, rng: DetRng, reconciler_seed: u64) -> Self {
        Self {
            expected_config: config,
            onboarded: false,
            last_train: 0,
            last_action: None,
            reward_basis: RewardBasis::default(),
            paused_until: None,
            events_cursor: 0,
            last_good_config: None,
            pending_auto_suspend: None,
            healthy_streak: 0,
            rng,
            baseline_p99_ms: 10_000.0,
            fetcher: TelemetryFetcher::new(),
            reconciler: Reconciler::new(reconciler_seed),
            health: HealthMonitor::new(),
        }
    }
}

/// What the decision trace's `reward` for the previous policy action is
/// computed from, at the next healthy tick: the action, and the warehouse's
/// accrued credits and dropped queries when the interval began. The reward
/// is a traced figure only: the DQN learns in retrain's episodes.
#[derive(Debug, Clone, Default)]
pub struct RewardBasis {
    /// The policy action awaiting its reward; `None` across a tick the
    /// policy sat out or overrode.
    pub action: Option<AgentAction>,
    pub credits: f64,
    pub dropped: u64,
}

/// A logged retraining pass: the episode count in force (onboarding and
/// refresh differ) and the seed drawn from the learning RNG. The seed is
/// `None` when training took an early path that never reached the episode
/// loop (no recent records, or zero episodes) — the cost model still
/// refreshed, so replay must still run the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainRecord {
    pub episodes: usize,
    pub seed: Option<u64>,
}

/// What one tick did that replay cannot re-derive from the simulator: the
/// retrain's seed, the arrival count it appended to the spike window and
/// whether telemetry was ingested. A live tick neither trains nor observes a
/// transition, so there is neither to record. The tick captures these
/// unconditionally and its `Tick` record carries them as is.
#[derive(Debug, Clone, Default)]
pub struct TickEffects {
    /// Whether the telemetry fetch succeeded (replay re-ingests the cursor
    /// ranges without re-charging overhead).
    pub fetched: bool,
    /// A (re)training pass ran this tick.
    pub retrain: Option<RetrainRecord>,
    /// The arrival count the spike detector appended this tick (replay
    /// appends it again).
    pub arrivals: Option<u32>,
}

/// One WAL record. Every control-plane event that mutates optimizer state
/// maps to exactly one record, appended after the event completes. A
/// `Tick` is binary ([`TICK_MAGIC`]); every other record is JSON.
#[derive(Debug, Clone)]
// `Tick` dominating the enum size is fine: records live only long enough to
// be encoded (or decoded and applied), never accumulate in memory.
#[allow(clippy::large_enum_variant)]
pub enum PersistRecord {
    /// First record of a fresh store: written once at attach time, before
    /// any snapshot exists, so a crash in the window between attach and the
    /// first successful snapshot is still recoverable — replay starts from
    /// `Orchestrator::new(seed)` instead of a snapshot. Compacted away by
    /// the first snapshot; a mid-stream `Genesis` is corruption.
    Genesis { seed: u64, at: SimTime },
    /// A warehouse came under management (its learning seed re-derives from
    /// the orchestrator seed and the name; the original config is recorded
    /// because the live config may have changed since).
    Manage {
        warehouse: String,
        original_config: WarehouseConfig,
        setup: KwoSetup,
    },
    /// One control tick (also covers onboarding, which is a fetch + train).
    Tick {
        warehouse: String,
        now: SimTime,
        effects: TickEffects,
        /// Action-log entries appended this tick (the ALTERs already ran
        /// against the surviving warehouse; only the record is restored).
        log_delta: Vec<ActionLogEntry>,
        /// Post-tick control state, imported wholesale at replay.
        ctl: CtlState,
    },
    /// The admin moved the cost/performance slider.
    SliderChanged {
        warehouse: String,
        slider: SliderPosition,
    },
    /// The admin added a constraint rule (takes effect at the next
    /// decision's action mask).
    ConstraintAdded { warehouse: String, rule: Rule },
    /// The admin cleared an external-change pause. Carries the config
    /// observed at resume time — the historical simulator state is not
    /// recoverable at replay.
    AdminResume {
        warehouse: String,
        expected_config: WarehouseConfig,
    },
}

/// Everything but the agent needed to rebuild one optimizer without
/// replaying history: the JSON part of a snapshot, and its log and
/// control-state sections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizerSnapshot {
    pub name: String,
    pub original_config: WarehouseConfig,
    pub setup: KwoSetup,
    pub cost_model: WarehouseCostModel,
    /// The spike detector's whole window, which tick records carry one
    /// count at a time.
    pub monitor: Monitor,
    /// The action log as [`crate::actuator::encode_log`] wrote it: outside
    /// the JSON body, a section of the envelope beside the agent's.
    #[serde(skip)]
    pub log: Vec<u8>,
    /// The control state as [`encode_ctl`] wrote it, the section after the
    /// log's.
    #[serde(skip)]
    pub ctl: Vec<u8>,
}

/// A point-in-time snapshot of the whole orchestrator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotState {
    pub version: u32,
    pub seed: u64,
    /// Simulator time when the snapshot was taken.
    pub at: SimTime,
    pub optimizers: Vec<OptimizerSnapshot>,
    /// `agents[k]` is the agent section of `optimizers[k]`: bytes the
    /// `agent` crate wrote and only it reads (at restore). Outside the JSON
    /// body: each is a binary section of the envelope, and
    /// both codec directions refuse a count that differs from `optimizers`'.
    #[serde(skip)]
    pub agents: Vec<Vec<u8>>,
}

/// Declares [`JsonRecord`], the records that stay JSON — every variant but
/// `Tick`, spelled as [`PersistRecord`] spells them — and its conversions.
macro_rules! json_records {
    ($($variant:ident { $($field:ident: $ty:ty),* }),*) => {
        #[derive(Serialize, Deserialize)]
        enum JsonRecord {
            $($variant { $($field: $ty),* }),*
        }

        impl JsonRecord {
            /// `record` as JSON, unless it is a tick.
            fn of(record: &PersistRecord) -> Option<Self> {
                match record {
                    $(PersistRecord::$variant { $($field),* } => {
                        Some(JsonRecord::$variant { $($field: $field.clone()),* })
                    })*
                    PersistRecord::Tick { .. } => None,
                }
            }

            fn into_record(self) -> PersistRecord {
                match self {
                    $(JsonRecord::$variant { $($field),* } => {
                        PersistRecord::$variant { $($field),* }
                    })*
                }
            }
        }
    };
}

json_records! {
    Genesis { seed: u64, at: SimTime },
    Manage { warehouse: String, original_config: WarehouseConfig, setup: KwoSetup },
    SliderChanged { warehouse: String, slider: SliderPosition },
    ConstraintAdded { warehouse: String, rule: Rule },
    AdminResume { warehouse: String, expected_config: WarehouseConfig }
}

fn codec(e: impl std::fmt::Display) -> PersistError {
    PersistError::Codec(e.to_string())
}

pub fn encode_record(record: &PersistRecord) -> Result<Vec<u8>, PersistError> {
    if let Some(json) = JsonRecord::of(record) {
        return serde_json::to_vec(&json).map_err(codec);
    }
    let PersistRecord::Tick {
        warehouse,
        now,
        effects,
        log_delta,
        ctl,
    } = record
    else {
        return Err(PersistError::Codec("neither JSON nor a tick".into()));
    };
    // A tick without log entries is ≈ 300 bytes.
    let mut out = Vec::with_capacity(512);
    encode_tick(&mut out, warehouse, *now, effects, log_delta, ctl);
    Ok(out)
}

/// Total decoder: arbitrary bytes yield `Err`, never a panic (fuzzed). The
/// magic picks the codec, so a JSON `Tick` of an earlier format is an
/// unknown variant, never applied.
pub fn decode_record(bytes: &[u8]) -> Result<PersistRecord, PersistError> {
    if let Some(tick) = bytes.strip_prefix(&TICK_MAGIC) {
        return decode_tick(tick).map_err(|e| PersistError::Codec(format!("tick record: {e}")));
    }
    serde_json::from_slice(bytes)
        .map(JsonRecord::into_record)
        .map_err(codec)
}

/// Appends a `Tick` record: [`TICK_MAGIC`], the warehouse's name, `now`,
/// the effects, the new log entries as one [`actuator::encode_log`]
/// section, then the control state ([`encode_ctl`]).
pub(crate) fn encode_tick(
    out: &mut Vec<u8>,
    warehouse: &str,
    now: SimTime,
    effects: &TickEffects,
    log_delta: &[ActionLogEntry],
    ctl: &CtlState,
) {
    out.extend_from_slice(&TICK_MAGIC);
    le::put_str(out, warehouse);
    le::put_u64(out, now);
    le::put_bool(out, effects.fetched);
    le::put_option(out, effects.retrain, |out, rt| {
        le::put_usize(out, rt.episodes);
        le::put_option(out, rt.seed, le::put_u64);
    });
    le::put_option(out, effects.arrivals, |out, n| le::put_u64(out, n.into()));
    actuator::encode_log(log_delta, out);
    encode_ctl(ctl, out);
}

/// The inverse of [`encode_tick`] past the magic.
fn decode_tick(bytes: &[u8]) -> Result<PersistRecord, String> {
    let mut r = Reader::new(bytes);
    let warehouse = r.str()?;
    let now = r.u64()?;
    let effects = TickEffects {
        fetched: r.bool()?,
        retrain: r.option(|r| {
            Ok(RetrainRecord {
                episodes: r.usize()?,
                seed: r.option(Reader::u64)?,
            })
        })?,
        arrivals: r.option(read_u32)?,
    };
    let log_delta = actuator::read_log(&mut r)?;
    let ctl = read_ctl(&mut r)?;
    r.finish()?;
    Ok(PersistRecord::Tick {
        warehouse,
        now,
        effects,
        log_delta,
        ctl,
    })
}

/// Appends `ctl` as fixed-width `nn::le` fields in declaration order, the
/// fields of its parts in theirs: a `u32` as a `u64`, a size, scaling
/// policy, action or health state as its index in its tag table.
pub fn encode_ctl(ctl: &CtlState, out: &mut Vec<u8>) {
    put_config(out, &ctl.expected_config);
    le::put_bool(out, ctl.onboarded);
    le::put_u64(out, ctl.last_train);
    le::put_option(out, ctl.last_action, put_action);
    le::put_option(out, ctl.reward_basis.action, put_action);
    le::put_f64(out, ctl.reward_basis.credits);
    le::put_u64(out, ctl.reward_basis.dropped);
    le::put_option(out, ctl.paused_until, le::put_u64);
    le::put_u64(out, ctl.events_cursor);
    le::put_option(out, ctl.last_good_config.as_ref(), put_config);
    le::put_option(out, ctl.pending_auto_suspend, le::put_u64);
    le::put_u64(out, ctl.healthy_streak.into());
    ctl.rng.write_le(out);
    le::put_f64(out, ctl.baseline_p99_ms);
    let (fetcher, stats) = (&ctl.fetcher, ctl.fetcher.stats());
    let (queries, events) = fetcher.cursors();
    le::put_usize(out, queries);
    le::put_usize(out, events);
    le::put_option(out, fetcher.last_success_at(), le::put_u64);
    le::put_u64(out, stats.fetches);
    le::put_f64(out, stats.overhead_credits);
    le::put_u64(out, stats.failed_fetches);
    le::put_u64(out, stats.partial_fetches);
    let reconciler = &ctl.reconciler;
    le::put_option(out, reconciler.desired.as_ref(), put_config);
    le::put_u64(out, reconciler.next_attempt_at);
    le::put_u64(out, reconciler.consecutive_failures.into());
    reconciler.rng.write_le(out);
    let health = &ctl.health;
    out.push(health.state.digest_code() as u8);
    le::put_u64(out, health.healthy_ticks);
    le::put_u64(out, health.degraded_ticks);
    le::put_u64(out, health.frozen_ticks);
}

/// The inverse of [`encode_ctl`] over one whole section, total: short,
/// lying or trailing bytes are an `Err`, never a panic.
pub fn decode_ctl(bytes: &[u8]) -> Result<CtlState, String> {
    let mut r = Reader::new(bytes);
    let ctl = read_ctl(&mut r)?;
    r.finish()?;
    Ok(ctl)
}

fn read_ctl(r: &mut Reader) -> Result<CtlState, String> {
    Ok(CtlState {
        expected_config: read_config(r)?,
        onboarded: r.bool()?,
        last_train: r.u64()?,
        last_action: r.option(read_action)?,
        reward_basis: RewardBasis {
            action: r.option(read_action)?,
            credits: r.f64()?,
            dropped: r.u64()?,
        },
        paused_until: r.option(Reader::u64)?,
        events_cursor: r.u64()?,
        last_good_config: r.option(read_config)?,
        pending_auto_suspend: r.option(Reader::u64)?,
        healthy_streak: read_u32(r)?,
        rng: DetRng::read_le(r)?,
        baseline_p99_ms: r.f64()?,
        fetcher: TelemetryFetcher::from_parts(
            (r.usize()?, r.usize()?),
            r.option(Reader::u64)?,
            FetchStats {
                fetches: r.u64()?,
                overhead_credits: r.f64()?,
                failed_fetches: r.u64()?,
                partial_fetches: r.u64()?,
            },
        ),
        reconciler: Reconciler {
            desired: r.option(read_config)?,
            next_attempt_at: r.u64()?,
            consecutive_failures: read_u32(r)?,
            rng: DetRng::read_le(r)?,
        },
        health: HealthMonitor {
            state: tagged(&HealthState::ALL, r.u8()?, "health state")?,
            healthy_ticks: r.u64()?,
            degraded_ticks: r.u64()?,
            frozen_ticks: r.u64()?,
        },
    })
}

fn put_action(out: &mut Vec<u8>, action: AgentAction) {
    out.push(action.index() as u8);
}

fn read_action(r: &mut Reader) -> Result<AgentAction, String> {
    tagged(&AgentAction::ALL, r.u8()?, "action")
}

fn put_config(out: &mut Vec<u8>, c: &WarehouseConfig) {
    out.push(c.size.index() as u8);
    le::put_u64(out, c.auto_suspend_ms);
    le::put_bool(out, c.auto_resume);
    le::put_u64(out, c.min_clusters.into());
    le::put_u64(out, c.max_clusters.into());
    out.push(c.scaling_policy as u8);
    le::put_u64(out, c.max_concurrency.into());
}

fn read_config(r: &mut Reader) -> Result<WarehouseConfig, String> {
    Ok(WarehouseConfig {
        size: tagged(&WarehouseSize::ALL, r.u8()?, "size")?,
        auto_suspend_ms: r.u64()?,
        auto_resume: r.bool()?,
        min_clusters: read_u32(r)?,
        max_clusters: read_u32(r)?,
        scaling_policy: tagged(&POLICIES, r.u8()?, "scaling policy")?,
        max_concurrency: read_u32(r)?,
    })
}

/// Encodes a snapshot in the enveloped format: `KWSN` magic, the number of
/// sections (`u32` LE), each section as its `u32` LE length and its bytes —
/// per optimizer its agent section, its log section and its control-state
/// section — then the JSON body, which carries the format version.
pub fn encode_snapshot(snapshot: &SnapshotState) -> Result<Vec<u8>, PersistError> {
    if snapshot.agents.len() != snapshot.optimizers.len() {
        return Err(PersistError::Codec(format!(
            "{} agents for {} optimizers",
            snapshot.agents.len(),
            snapshot.optimizers.len()
        )));
    }
    let body = serde_json::to_vec(snapshot).map_err(codec)?;
    let sections: Vec<&[u8]> = (snapshot.agents.iter().zip(&snapshot.optimizers))
        .flat_map(|(agent, o)| [&agent[..], &o.log[..], &o.ctl[..]])
        .collect();
    envelope(&sections, &body)
}

/// Frames `sections` and `body` as [`encode_snapshot`] describes.
fn envelope(sections: &[&[u8]], body: &[u8]) -> Result<Vec<u8>, PersistError> {
    let too_large = |what: &str| PersistError::Codec(format!("{what} too large for the envelope"));
    let count = u32::try_from(sections.len()).map_err(|_| too_large("section count"))?;
    let header_len: usize = sections.iter().map(|s| 4 + s.len()).sum();
    let mut out = Vec::with_capacity(8 + header_len + body.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&count.to_le_bytes());
    for section in sections {
        let len = u32::try_from(section.len()).map_err(|_| too_large("section"))?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(section);
    }
    out.extend_from_slice(body);
    Ok(out)
}

/// Splits `bytes` into the next `u32` LE and the rest.
fn take_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (word, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*word), rest))
}

/// Total decoder: arbitrary bytes yield `Err`, never a panic (fuzzed).
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotState, PersistError> {
    let Some(rest) = bytes.strip_prefix(&SNAPSHOT_MAGIC) else {
        return Err(PersistError::Codec(
            "snapshot does not start with the KWSN envelope magic".into(),
        ));
    };
    let truncated = || PersistError::Codec("truncated snapshot envelope header".into());
    let (count, mut rest) = take_u32(rest).ok_or_else(truncated)?;
    // Reserve by sections read, never by the claimed count.
    let mut sections = Vec::new();
    for _ in 0..count {
        let (len, tail) = take_u32(rest).ok_or_else(truncated)?;
        let (section, tail) = tail.split_at_checked(len as usize).ok_or_else(truncated)?;
        sections.push(section);
        rest = tail;
    }
    let mut snap: SnapshotState = serde_json::from_slice(rest).map_err(codec)?;
    if snap.version != FORMAT_VERSION {
        return Err(PersistError::Corrupt(format!(
            "snapshot format v{} (this build reads v{FORMAT_VERSION})",
            snap.version
        )));
    }
    if sections.len() != 3 * snap.optimizers.len() {
        return Err(PersistError::Corrupt(format!(
            "snapshot carries {} sections for {} optimizers (an agent, a log and a ctl section each)",
            sections.len(),
            snap.optimizers.len()
        )));
    }
    for (o, three) in snap.optimizers.iter_mut().zip(sections.chunks_exact(3)) {
        snap.agents.push(three[0].to_vec());
        o.log = three[1].to_vec();
        o.ctl = three[2].to_vec();
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_snapshot() -> SnapshotState {
        SnapshotState {
            version: FORMAT_VERSION,
            seed: 0xD1CE,
            at: 86_400_000,
            optimizers: Vec::new(),
            agents: Vec::new(),
        }
    }

    /// What a control plane managing one warehouse snapshots on attach, and
    /// the simulator it manages: a real optimizer, its agent section ~50 KB
    /// of fresh weights.
    fn managed() -> (cdw_sim::Simulator, Vec<u8>) {
        use crate::store::{MemStore, StateStore};
        let mut account = cdw_sim::Account::new();
        account.create_warehouse("WH", WarehouseConfig::new(cdw_sim::WarehouseSize::Medium));
        let sim = cdw_sim::Simulator::new(account);
        let mut kwo = crate::Orchestrator::new(7);
        kwo.manage(&sim, "WH", KwoSetup::default());
        let mut store = MemStore::new();
        kwo.attach_store(Box::new(store.clone()), sim.now());
        (sim, store.load().unwrap().snapshot.unwrap())
    }

    fn managed_snapshot() -> Vec<u8> {
        managed().1
    }

    #[test]
    fn enveloped_snapshot_round_trips() {
        let snap = empty_snapshot();
        let bytes = encode_snapshot(&snap).unwrap();
        assert!(bytes.starts_with(&SNAPSHOT_MAGIC));
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.at, snap.at);
        // Re-encoding is byte-identical: the header is the agent sections
        // and nothing else, so digest pins survive a decode/encode cycle.
        assert_eq!(encode_snapshot(&back).unwrap(), bytes);
        // The envelope is the only format: its bare JSON body is refused.
        let body = serde_json::to_vec(&snap).unwrap();
        assert!(matches!(
            decode_snapshot(&body),
            Err(PersistError::Codec(_))
        ));
    }

    /// A control plane that has acted on its idle-heavy warehouse for a day
    /// past onboarding, and the simulator it acted on. `wal`, if given, is
    /// attached from the start and never compacted, so it ends holding
    /// every record the run journaled.
    fn idle_heavy(
        wal: Option<&crate::store::MemStore>,
    ) -> (cdw_sim::Simulator, crate::Orchestrator) {
        use cdw_sim::{QuerySpec, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS};
        let mut account = cdw_sim::Account::new();
        let config = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600);
        let wh = account.create_warehouse("WH", config);
        let mut sim = cdw_sim::Simulator::new(account);
        for h in 0..48 {
            let query = QuerySpec::builder(h)
                .work_ms_xs(30_000.0)
                .arrival_ms(h * HOUR_MS + 7 * MINUTE_MS)
                .build();
            sim.submit_query(wh, query);
        }
        let setup = KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 2,
            refresh_episodes: 0,
            ..KwoSetup::default()
        };
        let mut kwo = crate::Orchestrator::new(7);
        if let Some(wal) = wal {
            kwo.attach_store(Box::new(wal.clone()), 0);
            kwo.set_snapshot_interval(0);
        }
        kwo.manage(&sim, "WH", setup);
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, 2 * DAY_MS);
        (sim, kwo)
    }

    /// [`idle_heavy`]'s run snapshotted on attach: the simulator, its live
    /// action log, and the snapshot, whose log section holds that log.
    fn acted() -> (cdw_sim::Simulator, Vec<ActionLogEntry>, Vec<u8>) {
        use crate::store::{MemStore, StateStore};
        let (sim, mut kwo) = idle_heavy(None);
        let log = kwo.optimizer("WH").unwrap().actuator().log().to_vec();
        let mut store = MemStore::new();
        kwo.attach_store(Box::new(store.clone()), sim.now());
        (sim, log, store.load().unwrap().snapshot.unwrap())
    }

    /// Every tick record [`idle_heavy`]'s run journals.
    fn journaled_ticks() -> Vec<Vec<u8>> {
        use crate::store::{MemStore, StateStore};
        let mut wal = MemStore::new();
        idle_heavy(Some(&wal));
        let records = wal.load().unwrap().records;
        records
            .into_iter()
            .filter(|r| r.starts_with(&TICK_MAGIC))
            .collect()
    }

    #[test]
    fn a_managed_snapshot_carries_its_agent_in_binary_and_round_trips() {
        let (_, log, bytes) = acted();
        assert!(log.len() > 4, "{} entries", log.len());
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!((snap.optimizers.len(), snap.agents.len()), (1, 1));
        assert_eq!(encode_snapshot(&snap).unwrap(), bytes);
        // The sections are in the header; the tensors and the log are
        // nowhere in the body.
        let mut section = Vec::new();
        crate::actuator::encode_log(&log, &mut section);
        assert_eq!(snap.optimizers[0].log, section);
        for section in [&snap.agents[0], &section] {
            assert!(bytes.windows(section.len()).any(|w| w == section));
        }
        // So is the control state, in the one encoding a tick uses: the
        // live run's, its counters and cursors included.
        let (_, kwo) = idle_heavy(None);
        let live = kwo.optimizer("WH").unwrap();
        let ctl = decode_ctl(&snap.optimizers[0].ctl).unwrap();
        let mut section = Vec::new();
        encode_ctl(&ctl, &mut section);
        assert_eq!(snap.optimizers[0].ctl, section);
        assert_eq!(ctl.fetcher.cursors(), live.fetcher().cursors());
        assert_eq!(ctl.fetcher.stats(), live.fetcher().stats());
        let ticks = |h: &HealthMonitor| (h.state(), h.healthy_ticks(), h.degraded_ticks());
        assert_eq!(ticks(&ctl.health), ticks(live.health()));
        assert!(ctl.onboarded && ctl.health.healthy_ticks() > 40);
        let body = &bytes[bytes.len() - serde_json::to_vec(&snap).unwrap().len()..];
        let body = std::str::from_utf8(body).expect("the body is JSON");
        assert!(body.contains("\"monitor\":") && !body.contains("\"online\":"));
        assert!(!body.contains("\"commands\":") && !body.contains("actuator_log"));
        assert!(!body.contains("\"ctl\":") && !body.contains("\"rng\":"));
    }

    #[test]
    fn a_restored_log_is_the_live_one_naming_the_accounts_one_warehouse() {
        use crate::store::{MemStore, StateStore};
        let (sim, log, bytes) = acted();
        let mut store = MemStore::new();
        store.write_snapshot(&bytes).unwrap();
        let (kwo, _) = crate::Orchestrator::restore(Box::new(store), &sim).unwrap();
        let restored = kwo.optimizer("WH").unwrap();
        assert_eq!(restored.actuator().log(), log);
        let account = sim.account();
        let name = account
            .warehouse(account.warehouse_id("WH").unwrap())
            .name();
        assert_eq!(
            restored.name().as_ptr(),
            name.as_ptr(),
            "the log's one name"
        );
    }

    #[test]
    fn a_log_section_refuses_every_cut_and_every_extra_byte() {
        use crate::actuator::decode_log;
        use crate::store::{MemStore, StateStore};
        let (sim, log, bytes) = acted();
        let section = decode_snapshot(&bytes).unwrap().optimizers[0].log.clone();
        assert_eq!(decode_log(&section).unwrap(), log);
        for cut in 0..section.len() {
            assert!(
                decode_log(&section[..cut]).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
        let mut extended = section.clone();
        extended.push(0);
        assert_eq!(decode_log(&extended), Err("1 trailing bytes".into()));
        // The envelope carries a bad section opaque; restore refuses it as
        // corruption of the warehouse it belongs to.
        for bad in [&section[..section.len() - 1], &extended] {
            let mut snap = decode_snapshot(&bytes).unwrap();
            snap.optimizers[0].log = bad.to_vec();
            let mut store = MemStore::new();
            store
                .write_snapshot(&encode_snapshot(&snap).unwrap())
                .unwrap();
            match crate::Orchestrator::restore(Box::new(store), &sim) {
                Err(PersistError::Corrupt(m)) => {
                    assert!(m.starts_with("log section of WH: "), "{m}")
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|(_, s)| s)),
            }
        }
    }

    /// The first tick of [`journaled_ticks`] that logged an action.
    fn an_acting_tick(ticks: &[Vec<u8>]) -> &[u8] {
        let acted = |b: &&Vec<u8>| matches!(decode_record(b), Ok(PersistRecord::Tick { log_delta, .. }) if !log_delta.is_empty());
        ticks.iter().find(acted).expect("a tick logged an action")
    }

    #[test]
    fn a_real_tick_record_round_trips_bit_for_bit() {
        let ticks = journaled_ticks();
        assert!(ticks.len() > 40, "{} ticks", ticks.len());
        for bytes in &ticks {
            let record = decode_record(bytes).unwrap();
            assert_eq!(&encode_record(&record).unwrap(), bytes);
        }
        // Floats no JSON printer keeps, and every shape of effects.
        let Ok(PersistRecord::Tick {
            warehouse,
            now,
            log_delta,
            mut ctl,
            ..
        }) = decode_record(an_acting_tick(&ticks))
        else {
            panic!("not a tick")
        };
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        ctl.reward_basis.credits = -0.0;
        ctl.baseline_p99_ms = nan;
        let stats = FetchStats {
            overhead_credits: -nan,
            ..ctl.fetcher.stats()
        };
        let fetcher = &ctl.fetcher;
        ctl.fetcher =
            TelemetryFetcher::from_parts(fetcher.cursors(), fetcher.last_success_at(), stats);
        for retrain in [
            None,
            Some(RetrainRecord {
                episodes: 0,
                seed: None,
            }),
            Some(RetrainRecord {
                episodes: usize::MAX,
                seed: Some(u64::MAX),
            }),
        ] {
            let effects = TickEffects {
                fetched: true,
                retrain,
                arrivals: Some(u32::MAX),
            };
            let record = PersistRecord::Tick {
                warehouse: warehouse.clone(),
                now,
                effects,
                log_delta: log_delta.clone(),
                ctl: ctl.clone(),
            };
            let bytes = encode_record(&record).unwrap();
            let back = decode_record(&bytes).unwrap();
            assert_eq!(encode_record(&back).unwrap(), bytes);
            let PersistRecord::Tick {
                effects,
                log_delta: back_log,
                ctl: back,
                ..
            } = back
            else {
                panic!("not a tick")
            };
            assert_eq!(
                (effects.retrain, effects.arrivals),
                (retrain, Some(u32::MAX))
            );
            assert_eq!(back_log, log_delta);
            assert_eq!(back.reward_basis.credits.to_bits(), (-0.0f64).to_bits());
            assert_eq!(back.baseline_p99_ms.to_bits(), nan.to_bits());
            let overhead = back.fetcher.stats().overhead_credits;
            assert_eq!(overhead.to_bits(), (-nan).to_bits());
        }
    }

    #[test]
    fn a_binary_tick_refuses_every_cut_and_every_extra_byte() {
        use crate::store::{MemStore, StateStore};
        let ticks = journaled_ticks();
        let tick = an_acting_tick(&ticks);
        for cut in 0..tick.len() {
            assert!(
                decode_record(&tick[..cut]).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
        let extended = [tick, &[0]].concat();
        match decode_record(&extended) {
            Err(PersistError::Codec(m)) => assert_eq!(m, "tick record: 1 trailing bytes"),
            other => panic!("expected Codec, got {other:?}"),
        }
        // A snapshot's ctl section is the same codec, carried opaque by the
        // envelope; restore refuses a bad one as its warehouse's corruption.
        let (sim, _, bytes) = acted();
        let section = decode_snapshot(&bytes).unwrap().optimizers[0].ctl.clone();
        for cut in 0..section.len() {
            assert!(
                decode_ctl(&section[..cut]).is_err(),
                "a {cut}-byte ctl decoded"
            );
        }
        let extended = [&section[..], &[0]].concat();
        for bad in [&section[..section.len() - 1], &extended] {
            let mut snap = decode_snapshot(&bytes).unwrap();
            snap.optimizers[0].ctl = bad.to_vec();
            let mut store = MemStore::new();
            store
                .write_snapshot(&encode_snapshot(&snap).unwrap())
                .unwrap();
            match crate::Orchestrator::restore(Box::new(store), &sim) {
                Err(PersistError::Corrupt(m)) => {
                    assert!(m.starts_with("ctl section of WH: "), "{m}")
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|(_, s)| s)),
            }
        }
    }

    #[test]
    fn an_unknown_size_policy_action_or_health_tag_is_refused() {
        let mut ctl = CtlState::new(
            WarehouseConfig::new(cdw_sim::WarehouseSize::Medium),
            DetRng::seed_from_u64(1),
            2,
        );
        ctl.last_action = Some(AgentAction::SizeUp);
        let mut section = Vec::new();
        encode_ctl(&ctl, &mut section);
        let record = PersistRecord::Tick {
            warehouse: "WH".to_string(),
            now: 0,
            effects: TickEffects::default(),
            log_delta: Vec::new(),
            ctl,
        };
        let bytes = encode_record(&record).unwrap();
        let at = bytes.len() - section.len();
        // Offsets into the control state: the config's size tag opens it,
        // its scaling policy follows the size, auto-suspend, auto-resume and
        // both cluster counts; then `onboarded`, `last_train` and the last
        // action's presence byte and tag; the health state's tag is the
        // fourth field from the end.
        let health = section.len() - 3 * 8 - 1;
        for (offset, was, bad, why) in [
            (0, 2, 10, "unknown size tag 10"),
            (1 + 8 + 1 + 8 + 8, 0, 3, "unknown scaling policy tag 3"),
            (35, 0, 2, "2 is not a bool byte"),
            (
                35 + 1 + 8 + 1,
                AgentAction::SizeUp.index() as u8,
                8,
                "unknown action tag 8",
            ),
            (health, 0, 5, "unknown health state tag 5"),
        ] {
            let mut bad_bytes = bytes.clone();
            assert_eq!(bad_bytes[at + offset], was, "offset {offset}");
            bad_bytes[at + offset] = bad;
            match decode_record(&bad_bytes) {
                Err(PersistError::Codec(m)) => assert_eq!(m, format!("tick record: {why}")),
                other => panic!("expected Codec, got {other:?}"),
            }
        }
    }

    /// The snapshot v10 wrote: one agent section per optimizer, the action
    /// log and the control state as JSON in the body; v11 moved the log to a
    /// section and kept the control state in the body. Each is refused by
    /// its version and, relabelled v12, by its section count.
    #[test]
    fn a_v10_snapshot_with_its_log_in_the_body_is_corrupt() {
        let (_, _, bytes) = acted();
        let mut snap = decode_snapshot(&bytes).unwrap();
        let (agent, log_section) = (snap.agents[0].clone(), snap.optimizers[0].log.clone());
        let ctl_json = V11_TICK_JSON
            .split_once("\"ctl\":")
            .and_then(|(_, ctl)| ctl.strip_suffix("}}"))
            .unwrap();
        // A log of one entry, in the JSON v10 wrote.
        let log_json = concat!(
            r#"[{"at":12345,"warehouse":"WH","action":"NoOp","reason":"backoff-rollback","#,
            r#""commands":[{"command":{"SetAutoSuspend":{"ms":60000}},"status":"Applied","#,
            r#""attempts":1}]}]"#,
        );
        let v11 = format!("\"ctl\":{ctl_json},\"monitor\":");
        let v10 = format!("\"actuator_log\":{log_json},{v11}");
        for (version, sections, body_keys) in [
            (10, vec![&agent[..]], &v10),
            (11, vec![&agent[..], &log_section[..]], &v11),
        ] {
            for (label, why) in [
                (
                    version,
                    format!("v{version} (this build reads v{FORMAT_VERSION})"),
                ),
                (
                    FORMAT_VERSION,
                    format!("{} sections for 1 optimizers", sections.len()),
                ),
            ] {
                snap.version = label;
                let body = String::from_utf8(serde_json::to_vec(&snap).unwrap()).unwrap();
                let body = body.replacen("\"monitor\":", body_keys, 1);
                assert!(body.contains("\"ctl\":{\"expected_config\":"), "{body}");
                let old = envelope(&sections, body.as_bytes()).unwrap();
                match decode_snapshot(&old) {
                    Err(PersistError::Corrupt(m)) => assert!(m.contains(&why), "{m}"),
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn agent_sections_must_number_the_optimizers() {
        // Three sections an optimizer: its agent's, its log's, its ctl's.
        let managed = decode_snapshot(&managed_snapshot()).unwrap();
        // One section too many, then two, then one triple too many.
        for snap in [&managed, &empty_snapshot()] {
            let body = serde_json::to_vec(snap).unwrap();
            let sections = snap.agents.iter().zip(&snap.optimizers);
            let mut sections: Vec<&[u8]> = sections
                .flat_map(|(a, o)| [&a[..], &o.log[..], &o.ctl[..]])
                .collect();
            let o = &managed.optimizers[0];
            for extra in [&managed.agents[0], &o.log, &o.ctl] {
                sections.push(extra);
                match decode_snapshot(&envelope(&sections, &body).unwrap()) {
                    Err(PersistError::Corrupt(m)) => assert!(m.contains(" sections for "), "{m}"),
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
        }
        // One agent too few cannot even be written.
        let mut short = managed;
        short.agents.clear();
        assert!(matches!(
            encode_snapshot(&short),
            Err(PersistError::Codec(_))
        ));
    }

    #[test]
    fn a_lying_agent_section_is_a_decode_error_naming_it() {
        // A count of 2^60 layer sizes in eight bytes of section, an agent
        // whose batch size is zero, and one whose `NaN` discount would make
        // every TD target of it `NaN`. The envelope
        // carries each opaque; restore is where it is refused, as corruption
        // of the warehouse it belongs to. `DqnAgent::new` refuses the last
        // two configs, so they are a valid section with one word rewritten.
        use crate::store::{MemStore, StateStore};
        let (sim, bytes) = managed();
        let valid = decode_snapshot(&bytes).unwrap().agents.remove(0);
        // `word` counts from the config's first float, the discount: the
        // online network and the hidden widths come before it.
        let patched = |word: usize, value: u64| {
            let mut online = Vec::new();
            nn::Mlp::read_le(&mut Reader::new(&valid))
                .unwrap()
                .write_le(&mut online);
            let hidden = Reader::new(&valid[online.len()..]).u64().unwrap() as usize;
            let at = online.len() + 8 * (1 + hidden + word);
            let mut section = valid.clone();
            section[at..at + 8].copy_from_slice(&value.to_le_bytes());
            section
        };
        let zero_batch = patched(2, 0);
        let nan_gamma = patched(0, f64::NAN.to_bits());
        for (section, why) in [
            ((1u64 << 60).to_le_bytes().to_vec(), "cannot fit"),
            (zero_batch, "batch_size must be positive"),
            (nan_gamma, "gamma must lie in [0, 1]"),
        ] {
            let mut snap = decode_snapshot(&bytes).unwrap();
            snap.agents[0] = section;
            let bytes = encode_snapshot(&snap).unwrap();
            assert_eq!(decode_snapshot(&bytes).unwrap().agents, snap.agents);
            let mut store = MemStore::new();
            store.write_snapshot(&bytes).unwrap();
            match crate::Orchestrator::restore(Box::new(store), &sim) {
                Err(PersistError::Corrupt(m)) => {
                    assert!(m.contains("agent section of WH") && m.contains(why), "{m}")
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|(_, s)| s)),
            }
        }
    }

    /// The agent section v9 wrote: the online network, then the target
    /// network and the Adam moments, then the config and counters. This
    /// build's decoder reads the target's bytes as a config and refuses the
    /// section; restore names the warehouse it belongs to.
    #[test]
    fn a_v9_agent_section_with_its_target_and_moments_is_corrupt() {
        use crate::store::{MemStore, StateStore};
        use nn::le::{self, Reader};
        let (sim, bytes) = managed();
        let mut snap = decode_snapshot(&bytes).unwrap();
        let v10 = &snap.agents[0];
        let mut online = Vec::new();
        nn::Mlp::read_le(&mut Reader::new(v10))
            .unwrap()
            .write_le(&mut online);
        let (online, rest) = v10.split_at(online.len());
        // A fresh Adam as v9 encoded it: lr, betas, eps, the timestep, then
        // two sets of six still-unsized moment slots.
        let mut adam = Vec::new();
        for v in [1e-3, 0.9, 0.999, 1e-8] {
            le::put_f64(&mut adam, v);
        }
        le::put_u64(&mut adam, 0);
        for _ in 0..2 {
            le::put_usize(&mut adam, 6);
            (0..6).for_each(|_| le::put_usize(&mut adam, 0));
        }
        snap.agents[0] = [online, online, &adam, rest].concat();
        let mut store = MemStore::new();
        store
            .write_snapshot(&encode_snapshot(&snap).unwrap())
            .unwrap();
        match crate::Orchestrator::restore(Box::new(store), &sim) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("agent section of WH"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|(_, s)| s)),
        }
    }

    #[test]
    fn a_flapping_warehouse_does_not_grow_its_tick_records() {
        use crate::health::HealthSignals;
        use cdw_sim::WarehouseSize;
        let flapped = |flaps: u64| {
            let config = WarehouseConfig::new(WarehouseSize::Medium);
            let mut ctl = CtlState::new(config, DetRng::seed_from_u64(1), 2);
            for t in 0..flaps {
                let signals = HealthSignals {
                    config_drift: t % 2 == 0,
                    ..Default::default()
                };
                ctl.health.evaluate(signals);
            }
            ctl
        };
        let tick_bytes = |ctl: CtlState| {
            let record = PersistRecord::Tick {
                warehouse: "WH".to_string(),
                now: 0,
                effects: TickEffects {
                    fetched: true,
                    ..TickEffects::default()
                },
                log_delta: Vec::new(),
                ctl,
            };
            encode_record(&record).unwrap().len()
        };
        // Every evaluation flipped the state; the tick counters saw all
        // thousand.
        let ctl = flapped(1_000);
        assert_eq!(
            ctl.health.healthy_ticks() + ctl.health.degraded_ticks(),
            1_000
        );
        // So a thousand flaps cost a tick record what a hundred do, to the
        // byte: every field is fixed width.
        let bytes = tick_bytes(ctl);
        assert_eq!(bytes, tick_bytes(flapped(100)));
        assert!(bytes < 8 * 1024);
    }

    #[test]
    fn truncated_envelope_is_rejected_at_every_length() {
        // Any cut inside the header or body must error, never panic. (Body
        // cuts fail JSON parsing; header cuts — the agent sections are the
        // header — fail envelope parsing.)
        for bytes in [
            encode_snapshot(&empty_snapshot()).unwrap(),
            managed_snapshot(),
        ] {
            for len in 0..bytes.len() {
                assert!(
                    decode_snapshot(&bytes[..len]).is_err(),
                    "prefix of {len} bytes decoded"
                );
            }
        }
    }

    /// A snapshot whose body claims `version` is `Corrupt`, naming it.
    fn assert_version_refused(version: u32) {
        let mut snap = empty_snapshot();
        snap.version = version;
        match decode_snapshot(&encode_snapshot(&snap).unwrap()) {
            Err(PersistError::Corrupt(m)) => {
                assert!(
                    m.ends_with(&format!("v{version} (this build reads v{FORMAT_VERSION})")),
                    "{m}"
                )
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn future_envelope_version_is_refused() {
        // The envelope has no version of its own: the body's refuses the
        // next format, however it frames its sections.
        assert_version_refused(FORMAT_VERSION + 1);
    }

    /// A JSON array of `STATE_DIM` copies of `v`: a state as v8 wrote it.
    fn state_json(v: &str) -> String {
        format!("[{}]", [v; agent::STATE_DIM].join(","))
    }

    /// A fresh Medium warehouse's tick record as v9 to v11 journaled it, in
    /// JSON: the control state of `CtlState::new(config, rng seeded 1, 2)`.
    const V11_TICK_JSON: &str = concat!(
        r#"{"Tick":{"warehouse":"WH","now":0,"effects":{"fetched":false,"retrain":null,"arrivals":null},"#,
        r#""log_delta":[],"ctl":{"expected_config":{"size":"Medium","auto_suspend_ms":600000,"#,
        r#""auto_resume":true,"min_clusters":1,"max_clusters":1,"scaling_policy":"Standard","#,
        r#""max_concurrency":8},"onboarded":false,"last_train":0,"last_action":null,"#,
        r#""reward_basis":{"action":null,"credits":0.0,"dropped":0},"paused_until":null,"#,
        r#""events_cursor":0,"last_good_config":null,"pending_auto_suspend":null,"healthy_streak":0,"#,
        r#""rng":{"s":[10451216379200822465,13757245211066428519,17911839290282890590,8196980753821780235]},"#,
        r#""baseline_p99_ms":10000.0,"fetcher":{"query_cursor":0,"event_cursor":0,"#,
        r#""last_success_at":null,"stats":{"fetches":0,"overhead_credits":0.0,"failed_fetches":0,"#,
        r#""partial_fetches":0}},"reconciler":{"desired":null,"next_attempt_at":0,"#,
        r#""consecutive_failures":0,"rng":{"s":[10905525725756348110,13819372491320860226,"#,
        r#"10987583248141275951,14119491246550939236]}},"health":{"state":"Healthy","#,
        r#""healthy_ticks":0,"degraded_ticks":0,"frozen_ticks":0}}}}"#,
    );

    /// A tick record as v8 would have journaled it: the v11 record with
    /// `learned` (in the shape the caller gives) in its effects, and the
    /// pending state vector where v9 put the reward basis.
    fn tick_json_v8(learned: &str) -> String {
        let basis = "\"reward_basis\":{\"action\":null,\"credits\":0.0,\"dropped\":0}";
        let state = state_json("0.5");
        let v8 = V11_TICK_JSON
            .replace(
                basis,
                &format!("\"prev_state\":[{state},0],\"prev_credits\":0.0,\"prev_dropped\":0"),
            )
            .replace(
                "\"arrivals\":null",
                &format!("\"learned\":{learned},\"arrivals\":null"),
            );
        assert!(v8.contains("prev_state") && v8.contains("learned"), "{v8}");
        v8
    }

    /// One journaled transition, as v6 to v8 wrote it.
    fn transition_json() -> String {
        let mask = ["true"; AgentAction::COUNT].join(",");
        format!(
            "{{\"state\":{},\"action\":0,\"reward\":-1.0,\"next_state\":{},\"next_mask\":[{mask}],\"terminal\":false}}",
            state_json("0.5"),
            state_json("0.25")
        )
    }

    /// Since v12 a tick is binary: a JSON one, of whichever format, is no
    /// record at all.
    #[track_caller]
    fn assert_json_tick_refused(json: &str) {
        match decode_record(json.as_bytes()) {
            Err(PersistError::Codec(m)) => assert!(m.contains("unknown variant `Tick`"), "{m}"),
            other => panic!("expected Codec, got {other:?}"),
        }
    }

    #[test]
    fn a_v11_json_tick_record_is_refused() {
        assert_json_tick_refused(V11_TICK_JSON);
    }

    #[test]
    fn a_v6_tick_record_with_a_train_seed_is_refused() {
        // v6 journaled `learned` as `[transition, seed]`. v9 journals no
        // transition, and v12 no JSON tick.
        let v6 = tick_json_v8(&format!("[{},7]", transition_json()));
        assert_json_tick_refused(&v6);
    }

    #[test]
    fn a_v8_tick_record_with_a_transition_is_refused() {
        // v8 journaled the transition a tick observed into the replay ring,
        // and the state it left pending. v9's ring lives for one retrain, so
        // a tick observes nothing.
        let v8 = tick_json_v8(&transition_json());
        assert_json_tick_refused(&v8);
    }

    #[test]
    fn a_v7_tick_record_with_a_spike_history_is_refused() {
        // v7 carried the spike detector's whole window in every tick's
        // `ctl.monitor`, the serving baseline beside it; since v8 a tick
        // journals the one count it appended and keeps the baseline as a
        // control-state scalar.
        let current = V11_TICK_JSON.replace("\"arrivals\":null", "\"arrivals\":3");
        let key = "\"baseline_p99_ms\":";
        let from = current.find(key).unwrap();
        let to = from + current[from..].find(',').unwrap();
        let v7 = format!(
            "{}\"monitor\":{{\"history\":[2.0,3.0],{}}}{}",
            &current[..from],
            &current[from..to],
            &current[to..]
        )
        .replace(",\"arrivals\":3", "");
        assert!(v7.contains("\"history\":"), "{v7}");
        assert_json_tick_refused(&v7);
    }

    #[test]
    fn mismatched_body_version_header_is_corrupt() {
        // The previous formats: no dual decode. v11 carried each control
        // state as JSON in the body, v10 each action log, v9 persisted the target
        // network and the Adam moments in the agent section, v8 journaled a
        // tick's transition and persisted the replay ring in the agent
        // section, v7 carried the spike window in every tick record, v6
        // journaled a tick's transition with the seed of its train step, v5
        // stored each log entry's SQL, outcome and kind and the health
        // history, v4 journaled a tick's transition and its seed as two
        // fields, v3 had a tagged header that copied the body's version, v2
        // was the all-JSON snapshot.
        for version in [11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1] {
            assert_version_refused(version);
        }
        // A v3 snapshot as v3 wrote it: magic, envelope version 1, two
        // tagged fields (tag, u32 length, value: body version, time), body.
        let mut v3 = empty_snapshot();
        v3.version = 3;
        let mut bytes = [
            &SNAPSHOT_MAGIC[..],
            &[1, 0, 2, 0],
            &[1, 0, 4, 0, 0, 0, 3, 0, 0, 0],
        ]
        .concat();
        bytes.extend_from_slice(&[2, 0, 8, 0, 0, 0]);
        bytes.extend_from_slice(&v3.at.to_le_bytes());
        bytes.extend_from_slice(&serde_json::to_vec(&v3).unwrap());
        assert!(decode_snapshot(&bytes).is_err());
    }
}

/// What recovery did, for operators and the crash-drill tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes dropped from a torn WAL tail.
    pub wal_truncated_bytes: u64,
    /// Size of the snapshot payload the recovery started from.
    pub snapshot_bytes: u64,
    /// Wall-clock time spent in restore (observability only).
    pub recovery_wall_ms: f64,
}
