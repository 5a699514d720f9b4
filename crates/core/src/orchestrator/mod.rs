//! The data-learning loop — Algorithm 1 of the paper.
//!
//! One [`WarehouseOptimizer`] per warehouse (C5: a fresh smart model per
//! warehouse, never shared), coordinated by the [`Orchestrator`]:
//!
//! ```text
//! while true:
//!   if T hours elapsed since last training:
//!     D ← D ∪ ReadTelemetryData(last T hours)       # fetcher
//!     M ← TrainSmartModel(D, wh, aggr, WCM)          # trainer
//!   if T_realtime minutes elapsed since last action:
//!     feedback ← Monitoring.RealTimeState()          # monitor
//!     action ← M.nextAction(UC, WCM, feedback)       # agent + constraints
//!     Actuator.apply(wh, action)                     # actuator
//!   savings ← cm.estimateSavings(...)                # cost model
//!   report(...)
//! ```
//!
//! The loop is fault-aware: every tick first evaluates a [`HealthMonitor`]
//! from live signals (telemetry staleness, reconciler failures, config
//! drift) and the resulting state gates what runs — training is skipped on
//! stale data, decisions fall back to a conservative live-signal policy
//! while degraded, and repeated actuation failures freeze optimization
//! entirely while the [`Reconciler`] keeps probing the control plane.

mod journal;
mod restore;
mod ring;
mod tick;

use crate::actuator::{decode_log, encode_log, Actuator};
use crate::drng::DetRng;
use crate::health::HealthMonitor;
use crate::monitoring::Monitor;
use crate::persist::{
    self, decode_ctl, encode_ctl, CtlState, OptimizerSnapshot, PersistError, PersistRecord,
    TickEffects,
};
use crate::reconciler::Reconciler;
use crate::store::StateStore;
use agent::{
    baseline_p99, reconstruct_specs, train_on_workload, ConstraintSet, DqnAgent, DqnConfig,
    EpisodeConfig, Rule, SliderPosition,
};
use cdw_sim::mix::{splitmix64, Fnv1a};
use cdw_sim::{
    QueryRecord, SimTime, Simulator, WarehouseConfig, WarehouseId, WarehouseName, DAY_MS, HOUR_MS,
    MINUTE_MS,
};
use costmodel::{estimate_savings, ReplayConfig, SavingsReport, WarehouseCostModel};
use journal::Journal;
use keebo_obs::{DecisionTrace, Histogram};
use rand::Rng;
use ring::{DecisionRing, MaskCause};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use telemetry::{TelemetryFetcher, TelemetryStore};

/// Decision-trace ring-buffer capacity: events kept per warehouse.
const TRACE_CAPACITY: usize = 2048;

/// Wall-clock time per control tick (µs), across every optimizer in the
/// process. Observability only — wall time never feeds back into decisions.
fn tick_wall_histogram() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        keebo_obs::global().histogram(
            "keebo.tick.wall_us",
            &[
                50.0, 100.0, 250.0, 500.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0,
            ],
        )
    })
}

/// Per-warehouse KWO configuration: everything the customer's admin sets in
/// the web portal (§4.1) plus operational cadences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KwoSetup {
    /// The cost/performance slider.
    pub slider: SliderPosition,
    /// Hard business rules.
    pub constraints: ConstraintSet,
    /// `T_realtime`: decision + feedback cadence.
    pub realtime_interval_ms: SimTime,
    /// `T`: retraining cadence.
    pub train_interval_ms: SimTime,
    /// Offline episodes at onboarding.
    pub onboarding_episodes: usize,
    /// Offline episodes per periodic retrain.
    pub refresh_episodes: usize,
    /// How much trailing history feeds each offline training pass.
    pub train_window_ms: SimTime,
}

impl Default for KwoSetup {
    fn default() -> Self {
        Self {
            slider: SliderPosition::Balanced,
            constraints: ConstraintSet::new(),
            realtime_interval_ms: 10 * MINUTE_MS,
            train_interval_ms: 24 * HOUR_MS,
            onboarding_episodes: 5,
            refresh_episodes: 1,
            train_window_ms: 3 * DAY_MS,
        }
    }
}

impl KwoSetup {
    /// Why this setup cannot drive a control loop, if it cannot: `run_until`
    /// divides by the cadence, and every rule must bind as written.
    pub fn validate(&self) -> Result<(), String> {
        if self.realtime_interval_ms == 0 {
            return Err("realtime_interval_ms must be > 0".to_string());
        }
        self.constraints.rules().iter().try_for_each(Rule::validate)
    }
}

/// Derives an independent deterministic RNG seed for a named stream (a
/// managed warehouse, a fleet shard) from a root seed.
///
/// The seed depends only on `(root, key)` — never on how many other streams
/// exist or in what order they were created — so a warehouse's learning
/// randomness is identical whether it is managed alone or alongside a whole
/// fleet (C5 isolation by construction), and fleet results are bit-identical
/// regardless of worker-thread count.
pub fn derive_stream_seed(root: u64, key: &str) -> u64 {
    // FNV-1a over the key, then splitmix64 to decorrelate nearby roots and
    // short keys.
    splitmix64(root ^ Fnv1a::default().write(key.as_bytes()).finish())
}

fn gcd(mut a: SimTime, mut b: SimTime) -> SimTime {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Why [`Orchestrator::try_manage`] refused to manage a warehouse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManageError {
    /// No warehouse with that name exists in the simulator's account.
    UnknownWarehouse(String),
    /// The warehouse already has an optimizer; managing it twice would
    /// create two models fighting over one warehouse.
    AlreadyManaged(String),
    /// The setup cannot drive a control loop; the string says which field.
    InvalidSetup(String),
}

impl std::fmt::Display for ManageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManageError::UnknownWarehouse(w) => write!(f, "unknown warehouse {w}"),
            ManageError::AlreadyManaged(w) => write!(f, "warehouse {w} is already managed"),
            ManageError::InvalidSetup(why) => write!(f, "invalid setup: {why}"),
        }
    }
}

impl std::error::Error for ManageError {}

/// One warehouse's optimizer, in three parts: what the admin set
/// ([`KwoSetup`], the original configuration), what the loop journals every
/// tick ([`CtlState`]), and what replay rebuilds from the journal (smart
/// model, cost model, telemetry, actuator log, spike window).
pub struct WarehouseOptimizer {
    wh: WarehouseId,
    /// The account's handle for the warehouse's name, shared with every
    /// record of it.
    name: WarehouseName,
    /// The customer's configuration at onboarding — the without-Keebo
    /// state every replay compares against.
    original_config: WarehouseConfig,
    setup: KwoSetup,
    /// Algorithm 1's loop state, mutated in place by the tick.
    ctl: CtlState,
    /// The spike detector's window of arrival counts.
    monitor: Monitor,
    agent: DqnAgent,
    cost_model: WarehouseCostModel,
    store: TelemetryStore,
    actuator: Actuator,
    /// Per-tick decision log (ring buffer of plain data). Write-only from
    /// the control loop. Deliberately *not* persisted: it is observability,
    /// recreated empty after recovery so the trace never perturbs (or
    /// bloats) durability.
    ring: DecisionRing,
    /// The last mask's cause list, handed to the next tick's mask so that
    /// masking allocates nothing.
    cause_buffer: Vec<MaskCause>,
    /// Replay-relevant effects of the current tick (see [`TickEffects`]).
    effects: TickEffects,
}

impl WarehouseOptimizer {
    /// The door of live manage, WAL `Manage` replay and snapshot restore
    /// alike, so a bad setup or original config is refused with one message.
    fn new(
        wh: WarehouseId,
        name: WarehouseName,
        original_config: WarehouseConfig,
        setup: KwoSetup,
        seed: u64,
    ) -> Result<Self, String> {
        setup.validate()?;
        original_config
            .validate()
            .map_err(|e| format!("original config: {e}"))?;
        let mut rng = DetRng::seed_from_u64(seed);
        let agent = DqnAgent::new(DqnConfig::default(), &mut rng);
        Ok(Self {
            wh,
            store: TelemetryStore::for_warehouse(name.clone()),
            name,
            ctl: CtlState::new(original_config.clone(), rng, seed ^ 0xD6E8_FEB8_6659_FD93),
            original_config,
            setup,
            monitor: Monitor::new(),
            agent,
            cost_model: WarehouseCostModel::default(),
            actuator: Actuator::new(),
            ring: DecisionRing::new(TRACE_CAPACITY),
            cause_buffer: Vec::new(),
            effects: TickEffects::default(),
        })
    }

    /// Warehouse name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The original (without-Keebo) configuration.
    pub fn original_config(&self) -> &WarehouseConfig {
        &self.original_config
    }

    /// This warehouse's telemetry accumulated so far.
    pub fn store(&self) -> &TelemetryStore {
        &self.store
    }

    /// Action history.
    pub fn actuator(&self) -> &Actuator {
        &self.actuator
    }

    /// The trained cost model.
    pub fn cost_model(&self) -> &WarehouseCostModel {
        &self.cost_model
    }

    /// The health state machine (degradation history and tick counters).
    pub fn health(&self) -> &HealthMonitor {
        &self.ctl.health
    }

    /// The desired-state reconciler.
    pub fn reconciler(&self) -> &Reconciler {
        &self.ctl.reconciler
    }

    /// Telemetry fetch statistics (including outages and partial batches).
    pub fn fetcher(&self) -> &TelemetryFetcher {
        &self.ctl.fetcher
    }

    /// The per-tick decision trace, rendered for export now: the tick path
    /// keeps plain data, and rule names are the rule set's as of this call.
    pub fn trace(&self) -> DecisionTrace {
        self.ring.render(&self.name, self.setup.constraints.rules())
    }

    /// Events [`WarehouseOptimizer::trace`] would hold, without rendering
    /// them.
    pub fn trace_len(&self) -> usize {
        self.ring.len()
    }

    /// Whether optimization is currently paused due to an external change.
    pub fn is_paused(&self, now: SimTime) -> bool {
        self.ctl.paused_until.is_some_and(|t| now < t)
    }

    /// Whether this optimizer has completed onboarding (a warm-restored
    /// optimizer reports `true` immediately — no re-onboarding).
    pub fn onboarded(&self) -> bool {
        self.ctl.onboarded
    }

    /// DQN training steps taken so far. Only retraining's offline episodes
    /// train; a live tick leaves the agent as it was.
    pub fn train_steps(&self) -> u64 {
        self.agent.train_steps()
    }

    /// Moves the slider (no retraining needed; the model re-calibrates its
    /// decisions because the slider is part of its state — §4.3).
    fn set_slider(&mut self, slider: SliderPosition) {
        self.setup.slider = slider;
    }

    /// Adds a constraint rule (applies from the next decision's mask).
    fn add_constraint(&mut self, rule: Rule) {
        self.setup.constraints.add(rule);
    }

    /// Clears an external-change pause; `expected_config` is the
    /// configuration observed at resume time.
    fn resume(&mut self, expected_config: WarehouseConfig) {
        self.ctl.paused_until = None;
        self.ctl.expected_config = expected_config;
    }

    /// Onboarding: one fetch and the initial training pass, after which the
    /// optimizer starts deciding.
    fn onboard(&mut self, sim: &mut Simulator) {
        self.effects = TickEffects::default();
        self.sense(sim);
        self.retrain(sim.now(), self.setup.onboarding_episodes, None);
        self.ctl.onboarded = true;
        self.forget_read_events();
    }

    /// Trains the cost model and smart model from accumulated telemetry.
    /// Returns the episode seed — `replay_seed` when WAL replay supplies the
    /// originally drawn one, otherwise drawn from the learning RNG — or
    /// `None` when an early path skipped the episode loop (the WAL records
    /// the outcome so recovery replays the exact same pass).
    fn train(&mut self, now: SimTime, episodes: usize, replay_seed: Option<u64>) -> Option<u64> {
        let records = self.store.queries(&self.name);
        if records.is_empty() {
            return None;
        }
        let cfg = &self.ctl.expected_config;
        self.cost_model =
            WarehouseCostModel::train(records, 0, now, cfg.max_concurrency, cfg.max_clusters);
        // Offline episodes on the recent reconstructed workload.
        let from = now.saturating_sub(self.setup.train_window_ms);
        let recent: Vec<QueryRecord> = records
            .iter()
            .filter(|r| r.arrival >= from)
            .cloned()
            .collect();
        if recent.is_empty() || episodes == 0 {
            self.ctl.last_train = now;
            return None;
        }
        let mut specs = reconstruct_specs(&recent, &self.cost_model.latency);
        // Shift arrivals to episode-local time.
        let t0 = specs.iter().map(|s| s.arrival).min().unwrap_or(0);
        for s in &mut specs {
            s.arrival -= t0;
        }
        // Serving baseline: the *observed* p99 restricted to executions at
        // the original size, so KWO's own downsizing can never inflate what
        // "normal" means, while the estimate still sharpens with more data.
        let observed: Vec<f64> = records
            .iter()
            .filter(|r| r.size == self.original_config.size)
            .map(|r| r.total_latency_ms() as f64)
            .collect();
        if !observed.is_empty() {
            self.ctl.baseline_p99_ms = telemetry::percentile(&observed, 99.0).max(1.0);
        }
        // Auto-suspend: analytic optimum over the observed gap distribution
        // (idle cost at the current rate vs measured cold-restart cost).
        let aso = costmodel::AutoSuspendOptimizer::train(&recent);
        let best = aso.optimal_ms(
            &agent::AUTO_SUSPEND_LADDER_MS,
            self.ctl.expected_config.size.credits_per_hour(),
            self.setup.slider.perf_penalty_weight(),
            self.setup.slider.backoff_latency_ratio(),
        );
        self.ctl.pending_auto_suspend = Some(best);

        // Training baseline: measured inside the reconstructed world so the
        // episode reward compares like with like.
        let episode_baseline = baseline_p99(&specs, &self.original_config).max(1.0);
        let ep_cfg = EpisodeConfig {
            decision_interval_ms: self.setup.realtime_interval_ms,
            baseline_p99_ms: episode_baseline,
            tail_ms: HOUR_MS,
        };
        let seed: u64 = match replay_seed {
            Some(s) => s,
            None => self.ctl.rng.gen(),
        };
        train_on_workload(
            &mut self.agent,
            &specs,
            &self.original_config,
            self.setup.slider,
            &self.setup.constraints,
            &ep_cfg,
            episodes,
            seed,
        );
        self.ctl.last_train = now;
        Some(seed)
    }

    /// Estimates savings for `[start, end)` per §5 (replay without-Keebo,
    /// subtract actual billed credits).
    pub fn savings_report(&self, sim: &Simulator, start: SimTime, end: SimTime) -> SavingsReport {
        let records = self.store.queries(&self.name);
        let billing = sim.account().ledger().warehouse(&self.name);
        estimate_savings(
            &self.cost_model,
            records,
            &billing,
            &ReplayConfig {
                original: self.original_config.clone(),
                window_start: start,
                window_end: end,
            },
        )
    }

    /// Everything needed to rebuild this optimizer without replaying its
    /// history — the agent apart, as the snapshot encodes it apart (the
    /// decision trace is deliberately excluded, and telemetry is re-derived
    /// from the surviving account by `ctl`'s fetcher cursors).
    fn export_snapshot(&self) -> (OptimizerSnapshot, Vec<u8>) {
        let (mut log, mut ctl) = (Vec::new(), Vec::new());
        encode_log(self.actuator.log(), &mut log);
        encode_ctl(&self.ctl, &mut ctl);
        let snap = OptimizerSnapshot {
            name: self.name.to_string(),
            original_config: self.original_config.clone(),
            setup: self.setup.clone(),
            cost_model: self.cost_model.clone(),
            monitor: self.monitor.clone(),
            log,
            ctl,
        };
        (snap, self.agent.to_bytes())
    }

    /// Rebuilds an optimizer from a snapshot against the surviving
    /// simulator (which still knows the warehouse by name and still holds
    /// the telemetry stream `replay_tick`'s delivery function reads).
    fn from_snapshot(
        snap: OptimizerSnapshot,
        agent: &[u8],
        sim: &Simulator,
    ) -> Result<Self, PersistError> {
        let wh = sim.account().warehouse_id(&snap.name).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "snapshot references warehouse {} absent from the simulator",
                snap.name
            ))
        })?;
        let agent = DqnAgent::from_bytes(agent)
            .map_err(|e| PersistError::Corrupt(format!("agent section of {}: {e}", snap.name)))?;
        let name = sim.account().warehouse(wh).name().clone();
        let log = decode_log(&snap.log)
            .map_err(|e| PersistError::Corrupt(format!("log section of {name}: {e}")))?;
        let ctl = decode_ctl(&snap.ctl)
            .map_err(|e| PersistError::Corrupt(format!("ctl section of {name}: {e}")))?;
        let mut o = WarehouseOptimizer::new(wh, name, snap.original_config, snap.setup, 0)
            .map_err(|e| PersistError::Corrupt(format!("snapshot of {}: {e}", snap.name)))?;
        if !ctl.fetcher.covered_by(sim.account()) {
            return Err(PersistError::Corrupt(format!(
                "snapshot telemetry cursors of {} reach past the simulator's account stream",
                o.name
            )));
        }
        o.agent = agent;
        o.cost_model = snap.cost_model;
        TelemetryFetcher::new().redeliver(sim.account(), &mut o.store, &ctl.fetcher);
        o.actuator.extend_log(log);
        o.monitor = snap.monitor;
        o.ctl = ctl;
        o.forget_read_events();
        Ok(o)
    }

    /// Appends the WAL record of the tick that just ran to `out`.
    /// `log_from` is the actuator-log length captured before the tick.
    fn encode_tick(&self, out: &mut Vec<u8>, now: SimTime, log_from: usize) {
        let log_delta = &self.actuator.log()[log_from..];
        persist::encode_tick(out, &self.name, now, &self.effects, log_delta, &self.ctl);
    }
}

/// Default snapshot cadence: one full snapshot every 48 control ticks
/// (a day at the 30-minute cadence) compacts the WAL and bounds replay.
pub const DEFAULT_SNAPSHOT_INTERVAL_TICKS: u64 = 48;

/// Coordinates one optimizer per managed warehouse.
pub struct Orchestrator {
    optimizers: Vec<WarehouseOptimizer>,
    seed: u64,
    journal: Journal,
}

impl Orchestrator {
    /// Creates an orchestrator; `seed` drives all learning randomness.
    pub fn new(seed: u64) -> Self {
        Self {
            optimizers: Vec::new(),
            seed,
            journal: Journal::default(),
        }
    }

    /// Attaches a durable state store, journals a genesis record, and
    /// immediately writes a full snapshot, so attaching mid-run is safe:
    /// recovery never needs records from before the store existed. The
    /// genesis record makes the store recoverable even if every snapshot
    /// write fails (injected or real): [`Self::restore`] can rebuild from
    /// `Orchestrator::new(seed)` plus the full WAL. From here on every
    /// control event is appended to the WAL and compacted into a snapshot
    /// every [`Self::set_snapshot_interval`] ticks. [`Self::restore`]
    /// re-attaches a store and writes neither a genesis record nor a
    /// snapshot: its snapshot and WAL already hold what it rebuilds.
    ///
    /// Persistence is fail-open and failures are graded by what they cost:
    /// transient append/snapshot errors are retried in line and counted
    /// (`keebo.store.append_errors` / `keebo.store.snapshot_errors`); a
    /// snapshot that keeps failing leaves the store attached (the WAL still
    /// holds every record, so nothing is lost — compaction retries at the
    /// next trigger); an append that exhausts its retries detaches the
    /// store (`keebo.store.detached`) because a hole in the WAL would
    /// poison replay.
    pub fn attach_store(&mut self, store: Box<dyn StateStore>, at: SimTime) {
        self.journal.attach(store, 0);
        self.journal.append(&PersistRecord::Genesis {
            seed: self.seed,
            at,
        });
        self.journal.snapshot(self.seed, &self.optimizers, at);
    }

    /// Compacts the WAL into a snapshot every `ticks` control ticks (default
    /// [`DEFAULT_SNAPSHOT_INTERVAL_TICKS`]; 0 never compacts). Compaction
    /// timing never feeds back into decisions, so any interval leaves the
    /// optimization trajectory bit-identical — the crash-drill matrix pins
    /// this. The interval is configuration, not state: a restored
    /// orchestrator starts at the default until this is called again.
    pub fn set_snapshot_interval(&mut self, ticks: u64) {
        self.journal.interval_ticks = ticks;
    }

    /// Control ticks since the last snapshot landed, as the
    /// `keebo.store.snapshot_age_ticks` gauge publishes it: a restored
    /// orchestrator resumes the age its store's WAL spans.
    pub fn snapshot_age_ticks(&self) -> u64 {
        self.journal.ticks_since_snapshot
    }

    /// Starts managing a warehouse. Its *current* configuration becomes the
    /// original (without-Keebo) reference.
    ///
    /// # Panics
    /// Panics if the warehouse does not exist or is already managed, or if
    /// the setup is invalid ([`KwoSetup::validate`]); use
    /// [`Orchestrator::try_manage`] for a non-panicking variant.
    #[expect(
        clippy::panic,
        reason = "documented panicking wrapper; try_manage is the fallible path"
    )]
    pub fn manage(&mut self, sim: &Simulator, warehouse: &str, setup: KwoSetup) {
        if let Err(e) = self.try_manage(sim, warehouse, setup) {
            panic!("{e}");
        }
    }

    /// Starts managing a warehouse, rejecting duplicates instead of creating
    /// a second optimizer that would fight the first over one warehouse
    /// (with [`Orchestrator::optimizer`] only ever returning the first).
    pub fn try_manage(
        &mut self,
        sim: &Simulator,
        warehouse: &str,
        setup: KwoSetup,
    ) -> Result<(), ManageError> {
        let adopted = self.adopt(sim, warehouse, None, setup.clone())?;
        let record = PersistRecord::Manage {
            warehouse: warehouse.to_string(),
            original_config: adopted.original_config.clone(),
            setup,
        };
        self.journal.append(&record);
        Ok(())
    }

    /// Puts `warehouse` under management — the one path for the live call
    /// and for WAL replay. `original_config` is `None` live (the warehouse's
    /// current configuration becomes the reference) and the recorded one at
    /// replay, because the live config may have changed since.
    fn adopt(
        &mut self,
        sim: &Simulator,
        warehouse: &str,
        original_config: Option<WarehouseConfig>,
        setup: KwoSetup,
    ) -> Result<&WarehouseOptimizer, ManageError> {
        let wh = sim
            .account()
            .warehouse_id(warehouse)
            .ok_or_else(|| ManageError::UnknownWarehouse(warehouse.to_string()))?;
        if self.optimizer(warehouse).is_some() {
            return Err(ManageError::AlreadyManaged(warehouse.to_string()));
        }
        let original = original_config.unwrap_or_else(|| sim.account().describe(wh).config);
        // The learning seed derives from the warehouse *name*, not the
        // manage order: managing A then B gives each warehouse the same
        // stream as managing it alone.
        let seed = derive_stream_seed(self.seed, warehouse);
        let name = sim.account().warehouse(wh).name().clone();
        let o = WarehouseOptimizer::new(wh, name, original, setup, seed)
            .map_err(ManageError::InvalidSetup)?;
        self.optimizers.push(o);
        Ok(&self.optimizers[self.optimizers.len() - 1])
    }

    /// Borrow an optimizer by warehouse name.
    pub fn optimizer(&self, warehouse: &str) -> Option<&WarehouseOptimizer> {
        self.optimizers.iter().find(|o| o.name == warehouse)
    }

    /// All managed optimizers, in manage order (fleet rollups iterate this).
    pub fn optimizers(&self) -> &[WarehouseOptimizer] {
        &self.optimizers
    }

    fn optimizer_mut(&mut self, warehouse: &str) -> Option<&mut WarehouseOptimizer> {
        self.optimizers.iter_mut().find(|o| o.name == warehouse)
    }

    /// Changes a warehouse's slider (takes effect at the next decision).
    pub fn set_slider(&mut self, warehouse: &str, slider: SliderPosition) {
        let Some(o) = self.optimizer_mut(warehouse) else {
            return;
        };
        o.set_slider(slider);
        self.journal.append(&PersistRecord::SliderChanged {
            warehouse: warehouse.to_string(),
            slider,
        });
    }

    /// Adds a constraint rule to a warehouse's rule set ("users can specify
    /// conditions/constraints that must be always met", §4.3). The rule
    /// applies from the next decision's action mask; like
    /// [`Orchestrator::set_slider`] it journals when a store is attached,
    /// and an unknown warehouse is a no-op. A rule that cannot bind as
    /// written ([`Rule::validate`]) is refused with
    /// [`ManageError::InvalidSetup`], neither applied nor journaled.
    pub fn add_constraint(&mut self, warehouse: &str, rule: Rule) -> Result<(), ManageError> {
        rule.validate().map_err(ManageError::InvalidSetup)?;
        let Some(o) = self.optimizer_mut(warehouse) else {
            return Ok(());
        };
        o.add_constraint(rule.clone());
        self.journal.append(&PersistRecord::ConstraintAdded {
            warehouse: warehouse.to_string(),
            rule,
        });
        Ok(())
    }

    /// Clears an external-change pause ("the admin explicitly asks the
    /// optimizations to continue", §4.4).
    pub fn admin_resume(&mut self, sim: &Simulator, warehouse: &str) {
        let Some(o) = self.optimizer_mut(warehouse) else {
            return;
        };
        let expected_config = sim.account().describe(o.wh).config;
        o.resume(expected_config.clone());
        self.journal.append(&PersistRecord::AdminResume {
            warehouse: warehouse.to_string(),
            expected_config,
        });
    }

    /// Observation mode: advance time, collecting telemetry without taking
    /// any action (pre-onboarding history building).
    pub fn observe_until(&mut self, sim: &mut Simulator, until: SimTime) {
        self.run_until(sim, until);
    }

    /// Trains every optimizer on the telemetry collected so far and enables
    /// optimization. Persisted as one Tick record per optimizer.
    pub fn onboard(&mut self, sim: &mut Simulator) {
        let now = sim.now();
        for o in &mut self.optimizers {
            self.journal.journal_tick(o, now, |o| o.onboard(sim));
        }
    }

    /// The main loop: advance to `until`, ticking every optimizer at its
    /// own `T_realtime` cadence. With nothing managed (a fresh orchestrator,
    /// or one restored from a store that held only its genesis record) the
    /// simulator just advances.
    pub fn run_until(&mut self, sim: &mut Simulator, until: SimTime) {
        // All optimizers share a global tick at the gcd of their cadences;
        // each fires when its own interval divides the tick time.
        let Some(tick) = self
            .optimizers
            .iter()
            .map(|o| o.setup.realtime_interval_ms)
            .reduce(gcd)
        else {
            sim.run_until(until);
            return;
        };
        let mut t = (sim.now() / tick + 1) * tick;
        while t <= until {
            let due = |o: &WarehouseOptimizer| t.is_multiple_of(o.setup.realtime_interval_ms);
            if self.optimizers.iter().any(due) {
                sim.run_until(t);
                for o in self.optimizers.iter_mut().filter(|o| due(o)) {
                    self.journal.journal_tick(o, t, |o| o.tick(sim));
                }
                self.journal.note_tick(self.seed, &self.optimizers, t);
            }
            t += tick;
        }
        sim.run_until(until);
    }

    /// Savings report for one warehouse over a window.
    pub fn savings_report(
        &self,
        sim: &Simulator,
        warehouse: &str,
        start: SimTime,
        end: SimTime,
    ) -> SavingsReport {
        #[expect(
            clippy::panic,
            reason = "reporting on an unmanaged warehouse is a caller bug worth aborting"
        )]
        self.optimizer(warehouse)
            .unwrap_or_else(|| panic!("unknown warehouse {warehouse}"))
            .savings_report(sim, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{Account, FaultPlan, QuerySpec, WarehouseSize};

    fn idle_heavy_sim() -> (Simulator, WarehouseId) {
        idle_heavy_sim_with(FaultPlan::none())
    }

    fn idle_heavy_sim_with(plan: FaultPlan) -> (Simulator, WarehouseId) {
        let mut account = Account::new();
        let wh = account.create_warehouse(
            "WH",
            WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
        );
        let mut sim = Simulator::with_faults(account, plan, 0);
        // 4 days of hourly 30-second queries: mostly idle.
        for h in 0..(4 * 24) {
            sim.submit_query(
                wh,
                QuerySpec::builder(h)
                    .work_ms_xs(30_000.0)
                    .cache_affinity(0.2)
                    .arrival_ms(h * HOUR_MS + 7 * MINUTE_MS)
                    .build(),
            );
        }
        (sim, wh)
    }

    fn fast_setup() -> KwoSetup {
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 2,
            refresh_episodes: 0,
            train_interval_ms: 2 * DAY_MS,
            ..KwoSetup::default()
        }
    }

    #[test]
    fn observation_mode_takes_no_actions() {
        let (mut sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(1);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, DAY_MS);
        let o = kwo.optimizer("WH").unwrap();
        assert_eq!(o.actuator().log().len(), 0);
        assert!(o.store().total_queries() > 0, "telemetry still collected");
    }

    #[test]
    fn onboarding_trains_models() {
        let (mut sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(1);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        let o = kwo.optimizer("WH").unwrap();
        assert!(o.onboarded());
        assert!(o.cost_model().gaps.dependent_fraction >= 0.0);
        assert!(o.ctl.baseline_p99_ms > 1.0);
    }

    #[test]
    fn optimization_reduces_spend_on_idle_heavy_warehouse() {
        let (mut sim, wh) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(7);
        kwo.manage(&sim, "WH", fast_setup());
        // Day 1–2: observe. Onboard. Day 3–4: optimize.
        kwo.observe_until(&mut sim, 2 * DAY_MS);
        kwo.onboard(&mut sim);
        let credits_before = sim.account().accrued_credits(wh, sim.now());
        kwo.run_until(&mut sim, 4 * DAY_MS);
        let credits_after = sim.account().accrued_credits(wh, sim.now());
        let with_keebo = credits_after - credits_before;
        // Without Keebo the warehouse burns ~8 credits/hour * 48h ≈ 384.
        let without = 8.0 * 48.0;
        assert!(
            with_keebo < without * 0.9,
            "with-Keebo 2-day spend {with_keebo:.1} should undercut static {without:.1}"
        );
        let o = kwo.optimizer("WH").unwrap();
        assert!(o.actuator().applied_count() > 0, "actions were taken");
    }

    #[test]
    fn external_change_pauses_and_admin_resume_unpauses() {
        let (mut sim, wh) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(3);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, DAY_MS + 2 * HOUR_MS);
        // An external admin resizes the warehouse behind Keebo's back.
        sim.alter_warehouse(
            wh,
            cdw_sim::WarehouseCommand::SetSize(WarehouseSize::X4Large),
            cdw_sim::ActionSource::External,
        )
        .unwrap();
        kwo.run_until(&mut sim, DAY_MS + 4 * HOUR_MS);
        let o = kwo.optimizer("WH").unwrap();
        assert!(
            o.is_paused(sim.now()),
            "external change pauses optimization"
        );
        assert!(
            o.reconciler().desired().is_none(),
            "external config becomes the truth; intent is dropped"
        );
        let actions_at_pause = o.actuator().log().len();
        kwo.run_until(&mut sim, DAY_MS + 8 * HOUR_MS);
        assert_eq!(
            kwo.optimizer("WH").unwrap().actuator().log().len(),
            actions_at_pause,
            "no actions while paused"
        );
        kwo.admin_resume(&sim, "WH");
        assert!(!kwo.optimizer("WH").unwrap().is_paused(sim.now()));
    }

    #[test]
    fn an_external_revert_is_an_action_entry_not_a_rollback() {
        use crate::actuator::{ActionOutcome, LogEntryKind, Reason};
        use crate::OpsKpis;
        use agent::AgentAction;
        let (mut sim, wh) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(3);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, DAY_MS + 2 * HOUR_MS);
        let kpis = |kwo: &Orchestrator, now| OpsKpis::collect(kwo.optimizer("WH").unwrap(), now);
        let before = kpis(&kwo, sim.now());
        // The optimizer's own last move was a downsize, so its inverse
        // applies from any size but the largest; then an admin changes
        // auto-suspend behind Keebo's back.
        kwo.optimizers[0].ctl.last_action = Some(AgentAction::SizeDown);
        let size = sim.account().describe(wh).config.size;
        let cmd = cdw_sim::WarehouseCommand::SetAutoSuspend { ms: 120_000 };
        sim.alter_warehouse(wh, cmd, cdw_sim::ActionSource::External)
            .unwrap();
        kwo.run_until(&mut sim, DAY_MS + 3 * HOUR_MS);

        let o = kwo.optimizer("WH").unwrap();
        assert!(o.is_paused(sim.now()));
        let reverts: Vec<_> = (o.actuator().log().iter())
            .filter(|e| e.reason == Reason::ExternalRevert)
            .collect();
        assert_eq!(reverts.len(), 1, "{:?}", o.actuator().log());
        let revert = reverts[0];
        assert_eq!(revert.action, AgentAction::SizeUp);
        assert_eq!(revert.kind(), LogEntryKind::Action);
        assert_eq!(revert.outcome(), ActionOutcome::Applied);
        assert!(sim.account().describe(wh).config.size > size);
        let after = kpis(&kwo, sim.now());
        assert_eq!(after.rollbacks, before.rollbacks, "a revert is no rollback");
        assert_eq!(after.actions_applied, before.actions_applied + 1);
    }

    #[test]
    fn a_healthy_tick_between_retrains_leaves_the_agent_as_it_was() {
        // The 2-day train interval puts eight 30-minute ticks after
        // onboarding well before the next retrain.
        let (mut sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(7);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        let trained = kwo.optimizers[0].agent.to_bytes();
        assert!(
            kwo.optimizers[0].train_steps() > 0,
            "onboarding's episodes train"
        );
        for k in 1..=8 {
            kwo.run_until(&mut sim, DAY_MS + k * 30 * MINUTE_MS);
            let o = &kwo.optimizers[0];
            assert_eq!(o.health().state(), crate::HealthState::Healthy, "tick {k}");
            assert_eq!(o.ctl.last_train, DAY_MS, "tick {k} retrained");
            assert!(o.agent.to_bytes() == trained, "tick {k} moved the agent");
            assert_eq!(o.agent.replay_len(), 0, "tick {k} observed a transition");
            // A binary tick has no field a transition could travel in: its
            // bytes decode whole, as a tick.
            let mut record = Vec::new();
            o.encode_tick(&mut record, sim.now(), 0);
            let decoded = persist::decode_record(&record);
            assert!(
                matches!(decoded, Ok(PersistRecord::Tick { .. })),
                "tick {k}"
            );
        }
        // Every tick but the first rewards the previous action, in the trace.
        let trace = kwo.optimizers[0].trace();
        let rewarded = trace.events().filter(|e| e.reward.is_some()).count();
        assert_eq!((trace.len(), rewarded), (8, 7));
    }

    #[test]
    fn savings_report_compares_replay_to_actuals() {
        let (mut sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(7);
        kwo.manage(
            &sim,
            "WH",
            KwoSetup {
                slider: SliderPosition::LowestCost,
                onboarding_episodes: 6,
                ..fast_setup()
            },
        );
        kwo.observe_until(&mut sim, 2 * DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, 4 * DAY_MS);
        let report = kwo.savings_report(&sim, "WH", 2 * DAY_MS, 4 * DAY_MS);
        assert!(report.estimated_without_keebo > 0.0);
        assert!(report.actual_with_keebo > 0.0);
        assert!(
            report.estimated_savings > 0.0,
            "KWO should save on this workload: {report:?}"
        );
    }

    #[test]
    fn telemetry_outage_degrades_and_blocks_retraining() {
        // A 6-hour metadata outage starting mid-optimization.
        let outage_from = 2 * DAY_MS + 4 * HOUR_MS;
        let outage_until = outage_from + 6 * HOUR_MS;
        let (mut sim, _) =
            idle_heavy_sim_with(FaultPlan::none().with_telemetry_outage(outage_from, outage_until));
        let mut kwo = Orchestrator::new(11);
        kwo.manage(
            &sim,
            "WH",
            KwoSetup {
                // Retrain cadence that lands inside the outage window.
                train_interval_ms: DAY_MS,
                ..fast_setup()
            },
        );
        kwo.observe_until(&mut sim, 2 * DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, outage_until + HOUR_MS);
        let o = kwo.optimizer("WH").unwrap();
        assert!(o.fetcher().stats().failed_fetches > 0, "outage was hit");
        assert!(
            o.health().degraded_ticks() > 0,
            "stale telemetry degraded the optimizer"
        );
        assert!(
            !(outage_from + crate::health::STALE_TELEMETRY_AFTER_MS..outage_until)
                .contains(&o.ctl.last_train),
            "no retraining on stale data inside the outage"
        );
        // After the outage clears, health recovers on its own.
        kwo.run_until(&mut sim, outage_until + 3 * HOUR_MS);
        let o = kwo.optimizer("WH").unwrap();
        assert_eq!(o.health().state(), crate::health::HealthState::Healthy);
    }

    #[test]
    fn alter_burst_drives_reconciler_and_recovery() {
        // Every ALTER fails for 12 hours starting shortly after onboarding.
        let burst_from = 2 * DAY_MS + HOUR_MS;
        let burst_until = burst_from + 12 * HOUR_MS;
        let (mut sim, wh) =
            idle_heavy_sim_with(FaultPlan::none().with_alter_burst(burst_from, burst_until, 1.0));
        let mut kwo = Orchestrator::new(5);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, 2 * DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, 4 * DAY_MS);
        let o = kwo.optimizer("WH").unwrap();
        assert!(
            o.actuator().failure_count() > 0,
            "the burst produced failed actuations"
        );
        assert!(
            o.actuator().transient_retries() > 0,
            "transient errors were retried in-line"
        );
        // Well after the burst the reconciler has converged the config back
        // onto the recorded intent and health is clean again.
        assert_eq!(o.reconciler().consecutive_failures(), 0);
        if let Some(want) = o.reconciler().desired() {
            assert!(
                sim.account()
                    .describe(wh)
                    .config
                    .commands_to(want)
                    .is_empty(),
                "reconciler converged after the burst"
            );
        }
        assert_eq!(o.health().state(), crate::health::HealthState::Healthy);
    }

    #[test]
    #[should_panic(expected = "unknown warehouse")]
    fn managing_unknown_warehouse_panics() {
        let account = Account::new();
        let sim = Simulator::new(account);
        let mut kwo = Orchestrator::new(1);
        kwo.manage(&sim, "NOPE", KwoSetup::default());
    }

    #[test]
    #[should_panic(expected = "already managed")]
    fn double_manage_panics() {
        let (sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(1);
        kwo.manage(&sim, "WH", KwoSetup::default());
        kwo.manage(&sim, "WH", KwoSetup::default());
    }

    #[test]
    fn try_manage_rejects_duplicates_without_panicking() {
        let (sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(1);
        assert_eq!(kwo.try_manage(&sim, "WH", KwoSetup::default()), Ok(()));
        assert_eq!(
            kwo.try_manage(&sim, "WH", KwoSetup::default()),
            Err(ManageError::AlreadyManaged("WH".to_string()))
        );
        assert_eq!(
            kwo.try_manage(&sim, "NOPE", KwoSetup::default()),
            Err(ManageError::UnknownWarehouse("NOPE".to_string()))
        );
        // The rejected duplicate left no second optimizer behind.
        assert_eq!(kwo.optimizers().len(), 1);
    }

    #[test]
    fn stream_seed_depends_on_name_not_order() {
        assert_eq!(
            derive_stream_seed(42, "WH_A"),
            derive_stream_seed(42, "WH_A")
        );
        assert_ne!(
            derive_stream_seed(42, "WH_A"),
            derive_stream_seed(42, "WH_B")
        );
        assert_ne!(
            derive_stream_seed(42, "WH_A"),
            derive_stream_seed(43, "WH_A")
        );
        // Pinned: every warehouse's and tenant's seed stream hangs off these.
        assert_eq!(derive_stream_seed(7, "WH"), 0xb0ce7d5cf4d6bbdc);
        assert_eq!(
            derive_stream_seed(1009, "tenant-3/BI_WH"),
            0xe6d38d638d41715a
        );
    }

    /// Two warehouses sharing one account + queue, each with its own hourly
    /// query stream at staggered offsets.
    fn two_warehouse_sim() -> (Simulator, WarehouseId, WarehouseId) {
        let mut account = Account::new();
        let wh_a = account.create_warehouse(
            "WH_A",
            WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600),
        );
        let wh_b = account.create_warehouse(
            "WH_B",
            WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(1800),
        );
        let mut sim = Simulator::new(account);
        for h in 0..(4 * 24) {
            sim.submit_query(
                wh_a,
                QuerySpec::builder(h)
                    .work_ms_xs(30_000.0)
                    .cache_affinity(0.2)
                    .arrival_ms(h * HOUR_MS + 7 * MINUTE_MS)
                    .build(),
            );
            sim.submit_query(
                wh_b,
                QuerySpec::builder(10_000 + h)
                    .work_ms_xs(12_000.0)
                    .cache_affinity(0.8)
                    .arrival_ms(h * HOUR_MS + 23 * MINUTE_MS)
                    .build(),
            );
        }
        (sim, wh_a, wh_b)
    }

    #[test]
    fn managed_together_equals_managed_alone() {
        // C5 isolation: WH_A's decisions and spend must be bit-identical
        // whether it is the orchestrator's only warehouse or shares the
        // orchestrator with WH_B. Seeds derive from names, faults are off,
        // and warehouses share no compute, so there is no cross-talk path.
        let run = |manage_b: bool| {
            let (mut sim, wh_a, _) = two_warehouse_sim();
            let mut kwo = Orchestrator::new(9);
            kwo.manage(&sim, "WH_A", fast_setup());
            if manage_b {
                kwo.manage(&sim, "WH_B", fast_setup());
            }
            kwo.observe_until(&mut sim, 2 * DAY_MS);
            kwo.onboard(&mut sim);
            kwo.run_until(&mut sim, 4 * DAY_MS);
            let log = kwo.optimizer("WH_A").unwrap().actuator().log().to_vec();
            let credits = sim.account().accrued_credits(wh_a, sim.now());
            (log, credits)
        };
        let (log_alone, credits_alone) = run(false);
        let (log_together, credits_together) = run(true);
        assert!(!log_alone.is_empty(), "WH_A took actions");
        assert_eq!(log_alone, log_together, "identical decision sequence");
        assert_eq!(
            credits_alone.to_bits(),
            credits_together.to_bits(),
            "bit-identical spend"
        );
    }

    #[test]
    fn mixed_cadences_each_tick_at_their_own_interval() {
        let (mut sim, _, _) = two_warehouse_sim();
        let mut kwo = Orchestrator::new(9);
        for (name, minutes) in [("WH_A", 20), ("WH_B", 30)] {
            let setup = KwoSetup {
                realtime_interval_ms: minutes * MINUTE_MS,
                ..fast_setup()
            };
            kwo.manage(&sim, name, setup);
        }
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, DAY_MS + 6 * HOUR_MS);
        // One trace event per post-onboarding tick: six hours hold eighteen
        // 20-minute ticks and twelve 30-minute ticks.
        let ticks = |name: &str| kwo.optimizer(name).unwrap().trace_len();
        assert_eq!(ticks("WH_A"), 18);
        assert_eq!(ticks("WH_B"), 12);
    }

    /// The state `kwo` would snapshot right now, encoded.
    fn snapshot_bytes(kwo: &Orchestrator, at: SimTime) -> Vec<u8> {
        let state = journal::snapshot_state(kwo.seed, &kwo.optimizers, at);
        crate::persist::encode_snapshot(&state).unwrap()
    }

    #[test]
    fn live_admin_events_and_their_replay_leave_identical_state() {
        use crate::store::MemStore;
        // After each admin event on the live orchestrator, a second one
        // restored from the same store (snapshot + replayed WAL) must hold
        // byte-identical state — and, since snapshots carry no telemetry,
        // the same re-derived telemetry view.
        let assert_replay_matches = |live: &Orchestrator, store: &MemStore, sim: &Simulator| {
            let (replayed, _) = Orchestrator::restore(Box::new(store.clone()), sim).unwrap();
            assert_eq!(
                snapshot_bytes(&replayed, sim.now()),
                snapshot_bytes(live, sim.now())
            );
            assert_eq!(
                replayed.optimizer("WH").unwrap().store(),
                live.optimizer("WH").unwrap().store()
            );
        };
        // Second input: a telemetry outage and a partial-delivery window
        // inside the journaled span, so live `sense` and replayed delivery
        // are compared across `Outage` and `Partial` ticks too.
        let faulted = FaultPlan::none()
            .with_telemetry_outage(DAY_MS + HOUR_MS / 2, DAY_MS + 3 * HOUR_MS / 2)
            .with_partial_telemetry(DAY_MS + 5 * HOUR_MS / 2, DAY_MS + 7 * HOUR_MS / 2, 0.5);
        for plan in [FaultPlan::none(), faulted] {
            let expect_faults = plan != FaultPlan::none();
            let (mut sim, wh) = idle_heavy_sim_with(plan);
            let store = MemStore::new();
            let mut kwo = Orchestrator::new(21);
            kwo.attach_store(Box::new(store.clone()), sim.now());
            kwo.set_snapshot_interval(0);

            kwo.manage(&sim, "WH", fast_setup());
            assert_replay_matches(&kwo, &store, &sim);

            kwo.observe_until(&mut sim, DAY_MS);
            kwo.onboard(&mut sim);
            kwo.run_until(&mut sim, DAY_MS + 2 * HOUR_MS);
            kwo.set_slider("WH", SliderPosition::LowestCost);
            assert_replay_matches(&kwo, &store, &sim);

            let rule = Rule::new(
                "nights",
                agent::TimeWindow::daily(20.0, 23.0),
                agent::RuleEffect::NoSuspend,
            );
            assert_eq!(kwo.add_constraint("WH", rule), Ok(()));
            assert_replay_matches(&kwo, &store, &sim);

            sim.alter_warehouse(
                wh,
                cdw_sim::WarehouseCommand::SetSize(WarehouseSize::X4Large),
                cdw_sim::ActionSource::External,
            )
            .unwrap();
            kwo.run_until(&mut sim, DAY_MS + 4 * HOUR_MS);
            assert!(kwo.optimizer("WH").unwrap().is_paused(sim.now()));
            kwo.admin_resume(&sim, "WH");
            assert!(!kwo.optimizer("WH").unwrap().is_paused(sim.now()));
            assert_replay_matches(&kwo, &store, &sim);

            let fetches = kwo.optimizer("WH").unwrap().fetcher().stats();
            assert_eq!(fetches.failed_fetches > 0, expect_faults);
            assert_eq!(fetches.partial_fetches > 0, expect_faults);
        }
    }

    #[test]
    fn a_tick_record_does_not_grow_with_warehouse_age() {
        // Two days of 10-minute ticks fill the spike window to its 288
        // counts; a tick record carries the one count its tick appended,
        // and the snapshot the whole window.
        let (sim, _) = idle_heavy_sim();
        let after = |appends: u32| {
            let mut kwo = Orchestrator::new(3);
            kwo.manage(&sim, "WH", fast_setup());
            let o = &mut kwo.optimizers[0];
            for count in 0..appends {
                o.monitor.push(1_000 + count);
            }
            o.effects.arrivals = o.monitor.newest();
            let mut record = Vec::new();
            o.encode_tick(&mut record, 0, 0);
            (record.len(), o.export_snapshot().0.monitor)
        };
        // Every field is fixed width: not even a digit more.
        let ((young, _), (old, window)) = (after(10), after(288));
        assert_eq!(old, young, "{old} B at 288 appends, {young} B at 10");
        let json = serde_json::to_string(&window).unwrap();
        assert_eq!(json.matches(',').count(), 287, "{json}");

        // The agent section holds no replay data: an agent after onboarding's
        // episodes encodes to as many bytes as one that took a single step.
        let (mut sim, _) = idle_heavy_sim();
        let mut kwo = Orchestrator::new(3);
        kwo.manage(&sim, "WH", fast_setup());
        kwo.observe_until(&mut sim, DAY_MS);
        kwo.onboard(&mut sim);
        // A tick past onboarding that logged no action, in absolute terms.
        let o = &kwo.optimizers[0];
        let mut tick = Vec::new();
        o.encode_tick(&mut tick, sim.now(), o.actuator.log().len());
        assert!(tick.len() <= 512, "{} B", tick.len());
        let onboarded = kwo.optimizers[0].export_snapshot().1;
        let config = DqnConfig::default();
        let mut one_step = DqnAgent::new(config.clone(), &mut DetRng::seed_from_u64(1));
        for action in (0..config.batch_size).map(|i| i % agent::AgentAction::COUNT) {
            one_step.observe(agent::Transition {
                state: vec![0.5; agent::STATE_DIM],
                action,
                reward: -1.0,
                next_state: vec![0.25; agent::STATE_DIM],
                next_mask: [true; agent::AgentAction::COUNT],
                terminal: false,
            });
        }
        assert!(one_step.train_step(&mut DetRng::seed_from_u64(2)).is_some());
        assert!(kwo.optimizers[0].train_steps() > one_step.train_steps());
        assert_eq!(onboarded.len(), one_step.to_bytes().len());
    }

    #[test]
    fn restored_empty_orchestrator_passes_time_through() {
        // Crash between attach_store and the first manage: the store holds
        // no optimizer, and the restored orchestrator has nothing to tick.
        let (mut sim, _) = idle_heavy_sim();
        let store = crate::store::MemStore::new();
        let mut kwo = Orchestrator::new(1);
        kwo.attach_store(Box::new(store.clone()), sim.now());
        drop(kwo);
        let (mut kwo, _) = Orchestrator::restore(Box::new(store), &sim).unwrap();
        kwo.run_until(&mut sim, 3 * HOUR_MS);
        assert_eq!(sim.now(), 3 * HOUR_MS);
        assert!(kwo.optimizers().is_empty());
    }
}
