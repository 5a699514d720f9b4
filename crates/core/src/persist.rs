//! Persisted record and snapshot types for the durable control plane.
//!
//! The orchestrator appends one [`PersistRecord`] per control event to its
//! [`crate::store::StateStore`] and periodically writes a full
//! [`SnapshotState`]. Recovery (`Orchestrator::restore`) loads the snapshot
//! and replays the log, and writes nothing: the journal resumes the
//! snapshot's age (the ticks the WAL spans), so compaction keeps the
//! schedule of the run that crashed:
//!
//! * every `Tick` record carries the *post*-tick control state — a clone of
//!   the [`CtlState`] the optimizer holds — assigned back after replaying
//!   the tick's side effects, so the RNG, cursors, and backoff schedules
//!   land exactly where they were. It is state only: what the admin set
//!   ([`KwoSetup`]) is journaled once by `Manage` and then by
//!   `SliderChanged` / `ConstraintAdded`, never per tick;
//! * what grows with a warehouse's age stays out of that clone (format v8):
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
//! Two encodings, split by what traced `fleet_durable` runs measured. Two
//! sections of each optimizer travel binary in the `KWSN` envelope: its
//! agent (online network weights, whose printing and parsing was most of
//! what a snapshot cost) and its action log (whose parsing was then most of
//! what a restore cost, format v11). `agent` and [`crate::actuator`] write
//! and read their own section in `nn::le` (fixed-width little-endian, every
//! `f64` as its bits — exact for NaN payloads and `-0.0` too, by
//! construction); this module frames the sections and never looks inside
//! them. Control state — the snapshot's JSON body and every WAL record, a
//! tick's new log entries included — stays serde JSON: self-describing,
//! byte-exact for finite floats, and spread over ~45 types that change with
//! almost every PR (DESIGN.md, "Durability").

use crate::drng::DetRng;
use crate::health::HealthMonitor;
use crate::monitoring::Monitor;
use crate::orchestrator::KwoSetup;
use crate::reconciler::Reconciler;
use agent::{AgentAction, Rule, SliderPosition};
use cdw_sim::{SimTime, WarehouseConfig};
use costmodel::WarehouseCostModel;
use serde::{Deserialize, Serialize};
use telemetry::TelemetryFetcher;

use crate::actuator::ActionLogEntry;

/// Bumped on any incompatible change to the persisted schema. Decode
/// refuses every other version: no store outlives its process here, so
/// there is no dual decode.
pub const FORMAT_VERSION: u32 = 11;

/// Magic prefix of the snapshot envelope, the only snapshot format: bytes
/// that do not start with it are not a snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"KWSN";

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
/// [`KwoSetup`], and fixed tuning lives in module constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrainRecord {
    pub episodes: usize,
    pub seed: Option<u64>,
}

/// What one tick did that replay cannot re-derive from the simulator: the
/// retrain's seed, the arrival count it appended to the spike window and
/// whether telemetry was ingested. A live tick neither trains nor observes a
/// transition, so there is neither to record. The tick captures these
/// unconditionally and its `Tick` record carries them as is.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
/// maps to exactly one record, appended after the event completes.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
/// replaying history: the JSON part of a snapshot, and its log section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizerSnapshot {
    pub name: String,
    pub original_config: WarehouseConfig,
    pub setup: KwoSetup,
    pub cost_model: WarehouseCostModel,
    /// The spike detector's whole window, which tick records carry one
    /// count at a time.
    pub monitor: Monitor,
    pub ctl: CtlState,
    /// The action log as [`crate::actuator::encode_log`] wrote it: outside
    /// the JSON body, a section of the envelope beside the agent's.
    #[serde(skip)]
    pub log: Vec<u8>,
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

pub fn encode_record(record: &PersistRecord) -> Result<Vec<u8>, PersistError> {
    serde_json::to_vec(record).map_err(|e| PersistError::Codec(e.to_string()))
}

/// Total decoder: arbitrary bytes yield `Err`, never a panic (fuzzed).
pub fn decode_record(bytes: &[u8]) -> Result<PersistRecord, PersistError> {
    serde_json::from_slice(bytes).map_err(|e| PersistError::Codec(e.to_string()))
}

/// Encodes a snapshot in the enveloped format: `KWSN` magic, the number of
/// sections (`u32` LE), each section as its `u32` LE length and its bytes —
/// per optimizer its agent section, then its log section — then the JSON
/// body, which carries the format version.
pub fn encode_snapshot(snapshot: &SnapshotState) -> Result<Vec<u8>, PersistError> {
    if snapshot.agents.len() != snapshot.optimizers.len() {
        return Err(PersistError::Codec(format!(
            "{} agents for {} optimizers",
            snapshot.agents.len(),
            snapshot.optimizers.len()
        )));
    }
    let body = serde_json::to_vec(snapshot).map_err(|e| PersistError::Codec(e.to_string()))?;
    let sections: Vec<&[u8]> = (snapshot.agents.iter().zip(&snapshot.optimizers))
        .flat_map(|(agent, o)| [&agent[..], &o.log[..]])
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
    let mut snap: SnapshotState =
        serde_json::from_slice(rest).map_err(|e| PersistError::Codec(e.to_string()))?;
    if snap.version != FORMAT_VERSION {
        return Err(PersistError::Corrupt(format!(
            "snapshot format v{} (this build reads v{FORMAT_VERSION})",
            snap.version
        )));
    }
    if sections.len() != 2 * snap.optimizers.len() {
        return Err(PersistError::Corrupt(format!(
            "snapshot carries {} sections for {} optimizers (an agent and a log section each)",
            sections.len(),
            snap.optimizers.len()
        )));
    }
    for (o, pair) in snap.optimizers.iter_mut().zip(sections.chunks_exact(2)) {
        snap.agents.push(pair[0].to_vec());
        o.log = pair[1].to_vec();
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
    /// past onboarding, then snapshotted on attach; the simulator it acted
    /// on, its live action log, and the snapshot, whose log section holds
    /// that log.
    fn acted() -> (cdw_sim::Simulator, Vec<ActionLogEntry>, Vec<u8>) {
        use crate::store::{MemStore, StateStore};
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
        kwo.manage(&sim, "WH", setup);
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, 2 * DAY_MS);
        let log = kwo.optimizer("WH").unwrap().actuator().log().to_vec();
        let mut store = MemStore::new();
        kwo.attach_store(Box::new(store.clone()), sim.now());
        (sim, log, store.load().unwrap().snapshot.unwrap())
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
        let body = &bytes[bytes.len() - serde_json::to_vec(&snap).unwrap().len()..];
        let body = std::str::from_utf8(body).expect("the body is JSON");
        assert!(body.contains("\"ctl\":") && !body.contains("\"online\":"));
        assert!(!body.contains("\"commands\":") && !body.contains("actuator_log"));
    }

    #[test]
    fn a_restored_log_is_the_live_one_naming_the_accounts_one_warehouse() {
        use crate::store::{MemStore, StateStore};
        let (sim, log, bytes) = acted();
        let mut store = MemStore::new();
        store.write_snapshot(&bytes).unwrap();
        let (kwo, _) = crate::Orchestrator::restore(Box::new(store), &sim).unwrap();
        let restored = kwo.optimizer("WH").unwrap().actuator().log();
        assert_eq!(restored, log);
        let account = sim.account();
        let name = account
            .warehouse(account.warehouse_id("WH").unwrap())
            .name();
        assert!(restored
            .iter()
            .all(|e| cdw_sim::WarehouseName::ptr_eq(&e.warehouse, name)));
    }

    #[test]
    fn a_log_section_refuses_every_cut_and_every_extra_byte() {
        use crate::actuator::decode_log;
        use crate::store::{MemStore, StateStore};
        let (sim, log, bytes) = acted();
        let name = cdw_sim::WarehouseName::from("WH");
        let section = decode_snapshot(&bytes).unwrap().optimizers[0].log.clone();
        assert_eq!(decode_log(&section, &name).unwrap(), log);
        for cut in 0..section.len() {
            assert!(
                decode_log(&section[..cut], &name).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
        let mut extended = section.clone();
        extended.push(0);
        assert_eq!(decode_log(&extended, &name), Err("1 trailing bytes".into()));
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

    /// The snapshot v10 wrote: one agent section per optimizer, the action
    /// log as JSON in the body. Refused by its version; relabelled v11, by
    /// its section count.
    #[test]
    fn a_v10_snapshot_with_its_log_in_the_body_is_corrupt() {
        let (_, log, bytes) = acted();
        let mut snap = decode_snapshot(&bytes).unwrap();
        let log_json = serde_json::to_string(&log).unwrap();
        for (version, why) in [
            (10, "v10 (this build reads v11)"),
            (11, "1 sections for 1 optimizers"),
        ] {
            snap.version = version;
            let body = String::from_utf8(serde_json::to_vec(&snap).unwrap()).unwrap();
            let body = body.replacen(
                "\"monitor\":",
                &format!("\"actuator_log\":{log_json},\"monitor\":"),
                1,
            );
            assert!(body.contains("\"commands\":"), "{body}");
            let v10 = envelope(&[&snap.agents[0][..]], body.as_bytes()).unwrap();
            match decode_snapshot(&v10) {
                Err(PersistError::Corrupt(m)) => assert!(m.contains(why), "{m}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn agent_sections_must_number_the_optimizers() {
        // Two sections an optimizer, its agent's and its log's.
        let managed = decode_snapshot(&managed_snapshot()).unwrap();
        // One section too many, then one pair too many.
        for snap in [&managed, &empty_snapshot()] {
            let body = serde_json::to_vec(snap).unwrap();
            let pairs = snap.agents.iter().zip(&snap.optimizers);
            let mut sections: Vec<&[u8]> = pairs.flat_map(|(a, o)| [&a[..], &o.log[..]]).collect();
            for extra in [&managed.agents[0], &managed.optimizers[0].log] {
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
        // A count of 2^60 layer sizes in eight bytes of section, and an
        // agent whose zero batch size would panic its first retrain. The
        // envelope carries each opaque; restore is where it is refused, as
        // corruption of the warehouse it belongs to.
        use crate::store::{MemStore, StateStore};
        use agent::{DqnAgent, DqnConfig};
        let zero_batch = DqnConfig {
            batch_size: 0,
            ..DqnConfig::default()
        };
        let zero_batch = DqnAgent::new(zero_batch, &mut DetRng::seed_from_u64(1)).to_bytes();
        let (sim, bytes) = managed();
        for (section, why) in [
            ((1u64 << 60).to_le_bytes().to_vec(), "cannot fit"),
            (zero_batch, "batch_size must be positive"),
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
        // So a thousand flaps cost a tick record what a hundred do, give or
        // take a digit per timestamp.
        let bytes = tick_bytes(ctl);
        assert!(bytes <= tick_bytes(flapped(100)) + 128 && bytes < 8 * 1024);
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

    /// A tick record as v8 would have journaled it: this format's record
    /// JSON (v9 to v11 journal a tick alike) with `learned` (in the shape
    /// the caller gives) in its effects, and the pending state vector where
    /// v9 put the reward basis.
    fn tick_json_v8(learned: &str) -> String {
        let record = PersistRecord::Tick {
            warehouse: "WH".to_string(),
            now: 0,
            effects: TickEffects::default(),
            log_delta: Vec::new(),
            ctl: CtlState::new(
                WarehouseConfig::new(cdw_sim::WarehouseSize::Medium),
                DetRng::seed_from_u64(1),
                2,
            ),
        };
        let current = String::from_utf8(encode_record(&record).unwrap()).unwrap();
        assert!(decode_record(current.as_bytes()).is_ok());
        let basis = "\"reward_basis\":{\"action\":null,\"credits\":0.0,\"dropped\":0}";
        let state = state_json("0.5");
        let v8 = current
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

    #[track_caller]
    fn assert_lacks_reward_basis(json: &str) {
        match decode_record(json.as_bytes()) {
            Err(PersistError::Codec(m)) => assert!(m.contains("reward_basis"), "{m}"),
            other => panic!("expected Codec, got {other:?}"),
        }
    }

    #[test]
    fn a_v6_tick_record_with_a_train_seed_is_refused() {
        // v6 journaled `learned` as `[transition, seed]`. v9 journals no
        // transition, and a record from before it lacks the reward basis.
        let v6 = tick_json_v8(&format!("[{},7]", transition_json()));
        assert_lacks_reward_basis(&v6);
    }

    #[test]
    fn a_v8_tick_record_with_a_transition_is_refused() {
        // v8 journaled the transition a tick observed into the replay ring,
        // and the state it left pending. v9's ring lives for one retrain, so
        // a tick observes nothing; an unknown key alone would decode, but the
        // record lacks v9's reward basis.
        let v8 = tick_json_v8(&transition_json());
        assert_lacks_reward_basis(&v8);
    }

    #[test]
    fn a_v7_tick_record_with_a_spike_history_is_refused() {
        // v7 carried the spike detector's whole window in every tick's
        // `ctl.monitor`, the serving baseline beside it; since v8 a tick
        // journals the one count it appended and keeps the baseline as a
        // `ctl` scalar, which a v7 record lacks.
        let record = PersistRecord::Tick {
            warehouse: "WH".to_string(),
            now: 0,
            effects: TickEffects {
                arrivals: Some(3),
                ..TickEffects::default()
            },
            log_delta: Vec::new(),
            ctl: CtlState::new(
                WarehouseConfig::new(cdw_sim::WarehouseSize::Medium),
                DetRng::seed_from_u64(1),
                2,
            ),
        };
        let current = String::from_utf8(encode_record(&record).unwrap()).unwrap();
        assert!(decode_record(current.as_bytes()).is_ok());
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
        match decode_record(v7.as_bytes()) {
            Err(PersistError::Codec(m)) => assert!(m.contains("baseline_p99_ms"), "{m}"),
            other => panic!("expected Codec, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_body_version_header_is_corrupt() {
        // The previous formats: no dual decode. v10 carried each action log
        // as JSON in the body, v9 persisted the target
        // network and the Adam moments in the agent section, v8 journaled a
        // tick's transition and persisted the replay ring in the agent
        // section, v7 carried the spike window in every tick record, v6
        // journaled a tick's transition with the seed of its train step, v5
        // stored each log entry's SQL, outcome and kind and the health
        // history, v4 journaled a tick's transition and its seed as two
        // fields, v3 had a tagged header that copied the body's version, v2
        // was the all-JSON snapshot.
        for version in [10, 9, 8, 7, 6, 5, 4, 3, 2, 1] {
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
