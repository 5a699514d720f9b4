//! The actuator (§4.5): translates smart-model actions into the CDW's own
//! API, executes them, keeps a record of every action taken, and reports
//! errors.
//!
//! The CDW's control plane is allowed to be flaky (see `cdw_sim::faults`),
//! so the actuator distinguishes transient errors — retried a bounded
//! number of times in-line, each attempt billed — from permanent ones,
//! which fail fast. Every entry records *per-command* outcomes: a
//! multi-command action that dies halfway shows exactly which statements
//! landed, which failed, and which were never attempted.
//!
//! An entry stores facts only — the commands, how each ended, and a typed
//! [`Reason`]. Its SQL, overall outcome and kind are derived when read.
//! A snapshot carries a log, and a WAL tick record the entries it appended,
//! as one binary section each ([`encode_log`]).

use agent::AgentAction;
use cdw_sim::{
    ActionSource, AlterError, ScalingPolicy, SimTime, Simulator, WarehouseCommand, WarehouseConfig,
    WarehouseId, WarehouseSize,
};
use nn::le::{self, Reader};
use std::fmt;

/// Why the controller did what it did: the reason of an action-log entry,
/// and of a control tick in the decision trace. The JSONL export and the
/// rendered log spell it as its [`Reason::as_str`] text; the binary log
/// section stores its index in [`Reason::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Still learning the workload; nothing is acted on.
    Observing,
    /// An external configuration change paused optimization (§4.4).
    PausedExternalChange,
    /// An external-change pause is in force.
    Paused,
    /// Repeated actuation failures: no new optimization at all.
    Frozen,
    /// The reconciler is repairing actuation failures or config drift.
    MidRepair,
    /// Stale telemetry: the live-signal fallback decided.
    DegradedFallback,
    /// The smart model's choice.
    Policy,
    /// Back-off (§4.3): roll back to a configuration that performed well.
    BackoffRollback,
    /// Back-off with no better-provisioned configuration to return to.
    Backoff,
    /// Sustained health: spike headroom drifts back toward the original.
    CapacityDecay,
    /// The inverse of the optimizer's own last action, after an external
    /// change.
    ExternalRevert,
    /// The analytically chosen auto-suspend.
    AutoSuspendOptimizer,
    /// The reconciler re-driving the warehouse toward its desired config.
    ReconcileDrift,
}

impl Reason {
    pub const ALL: [Reason; 13] = [
        Reason::Observing,
        Reason::PausedExternalChange,
        Reason::Paused,
        Reason::Frozen,
        Reason::MidRepair,
        Reason::DegradedFallback,
        Reason::Policy,
        Reason::BackoffRollback,
        Reason::Backoff,
        Reason::CapacityDecay,
        Reason::ExternalRevert,
        Reason::AutoSuspendOptimizer,
        Reason::ReconcileDrift,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Reason::Observing => "observing",
            Reason::PausedExternalChange => "paused:external-change",
            Reason::Paused => "paused",
            Reason::Frozen => "frozen",
            Reason::MidRepair => "degraded:mid-repair",
            Reason::DegradedFallback => "degraded-fallback",
            Reason::Policy => "policy",
            Reason::BackoffRollback => "backoff-rollback",
            Reason::Backoff => "backoff",
            Reason::CapacityDecay => "capacity-decay",
            Reason::ExternalRevert => "external-revert",
            Reason::AutoSuspendOptimizer => "auto-suspend-optimizer",
            Reason::ReconcileDrift => "reconcile-drift",
        }
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How one action application ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionOutcome {
    /// At least one command applied and none failed.
    Applied,
    /// Nothing needed doing (NoOp, saturated move, benign state race).
    NoChange,
    /// The CDW rejected a command; carries its error.
    Failed(AlterError),
}

/// How a single command within an action ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandStatus {
    /// The command took effect.
    Applied,
    /// Benign state race (already suspended / already running).
    NoChange,
    /// The command failed after exhausting retries; carries the error.
    Failed(AlterError),
    /// Never attempted: an earlier command in the same action failed.
    Skipped,
}

/// Per-command record inside one log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutcome {
    pub command: WarehouseCommand,
    pub status: CommandStatus,
    /// Attempts made (1 for a clean apply; >1 means transient retries).
    pub attempts: u32,
}

/// What kind of control-plane activity a log entry records, derived from
/// its [`Reason`] by [`ActionLogEntry::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEntryKind {
    /// Anything the optimizer chose: a policy or fallback action, a
    /// back-off step, capacity decay, the analytic auto-suspend, and the
    /// revert of its own last action after an external change.
    Action,
    /// A back-off rollback to a configuration that performed well.
    Rollback,
    /// The reconciler re-driving the warehouse toward its desired config.
    Reconcile,
}

/// One entry in the action log — this is what the web portal's "real-time
/// actions taken on each warehouse" view renders (§4.1). An entry names no
/// warehouse: a log is one warehouse's, and its optimizer holds the name.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionLogEntry {
    pub at: SimTime,
    /// The agent action the commands came from; `NoOp` for raw command
    /// moves (rollbacks, the analytic auto-suspend, reconciles).
    pub action: AgentAction,
    pub reason: Reason,
    /// Each command and how it ended, in execution order.
    pub commands: Vec<CommandOutcome>,
}

impl ActionLogEntry {
    /// The SQL the action translated to against `warehouse`, in execution
    /// order.
    pub fn sql<'a>(&'a self, warehouse: &'a str) -> impl Iterator<Item = String> + 'a {
        self.commands
            .iter()
            .map(move |c| c.command.to_sql(warehouse))
    }

    /// The first failed command's error; else `Applied` if any command
    /// applied; else `NoChange`.
    pub fn outcome(&self) -> ActionOutcome {
        let mut outcome = ActionOutcome::NoChange;
        for c in &self.commands {
            match &c.status {
                CommandStatus::Failed(e) => return ActionOutcome::Failed(e.clone()),
                CommandStatus::Applied => outcome = ActionOutcome::Applied,
                CommandStatus::NoChange | CommandStatus::Skipped => {}
            }
        }
        outcome
    }

    /// `Rollback` for a back-off rollback, `Reconcile` for a reconciler
    /// re-drive, `Action` for everything else — an external revert
    /// included.
    pub fn kind(&self) -> LogEntryKind {
        match self.reason {
            Reason::BackoffRollback => LogEntryKind::Rollback,
            Reason::ReconcileDrift => LogEntryKind::Reconcile,
            _ => LogEntryKind::Action,
        }
    }
}

/// Small credit cost per executed command (ALTER statements are metadata
/// queries; nearly free but not zero — part of Fig. 6's overhead
/// accounting).
const COST_PER_COMMAND: f64 = 0.0005;
/// In-line retries per command on transient control-plane errors
/// (`ServiceUnavailable`/`Throttled`). These model sub-second client
/// retries, so they don't advance sim time; longer waits are the
/// reconciler's job (cross-tick exponential backoff).
const MAX_TRANSIENT_RETRIES: u32 = 2;

/// Applies actions and remembers everything it did: the action log is the
/// portal's audit trail, and every count below is read off it.
#[derive(Debug, Default, Clone)]
pub struct Actuator {
    log: Vec<ActionLogEntry>,
}

impl Actuator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one command, retrying transient errors up to
    /// [`MAX_TRANSIENT_RETRIES`] times; every attempt is billed.
    fn run_command(
        sim: &mut Simulator,
        wh: WarehouseId,
        cmd: WarehouseCommand,
        now: SimTime,
    ) -> (Result<(), AlterError>, u32) {
        let mut attempts = 0;
        loop {
            attempts += 1;
            sim.account_mut().charge_overhead(now, COST_PER_COMMAND);
            match sim.alter_warehouse(wh, cmd, ActionSource::Keebo) {
                Err(ref e) if e.is_transient() && attempts <= MAX_TRANSIENT_RETRIES => {
                    keebo_obs::global()
                        .counter("keebo.actuator.transient_retries")
                        .inc();
                }
                res => return (res, attempts),
            }
        }
    }

    /// Runs a command list, recording per-command outcomes; commands after
    /// the first hard failure are marked `Skipped`.
    fn run_commands(
        sim: &mut Simulator,
        wh: WarehouseId,
        commands: &[WarehouseCommand],
    ) -> Vec<CommandOutcome> {
        let now = sim.now();
        let mut outcomes = Vec::with_capacity(commands.len());
        let mut failed = false;
        for &command in commands {
            let (status, attempts) = if failed {
                (CommandStatus::Skipped, 0)
            } else {
                let (res, attempts) = Self::run_command(sim, wh, command, now);
                let status = match res {
                    Ok(()) => CommandStatus::Applied,
                    Err(e) if e.is_benign() => CommandStatus::NoChange,
                    Err(e) => {
                        failed = true;
                        CommandStatus::Failed(e)
                    }
                };
                (status, attempts)
            };
            outcomes.push(CommandOutcome {
                command,
                status,
                attempts,
            });
        }
        outcomes
    }

    /// Runs `commands` and logs them as one entry under `action` and
    /// `reason`.
    fn execute(
        &mut self,
        sim: &mut Simulator,
        wh: WarehouseId,
        commands: &[WarehouseCommand],
        action: AgentAction,
        reason: Reason,
    ) -> ActionOutcome {
        let entry = ActionLogEntry {
            at: sim.now(),
            action,
            reason,
            commands: Self::run_commands(sim, wh, commands),
        };
        let outcome = entry.outcome();
        let outcome_metric = match &outcome {
            ActionOutcome::Applied => "keebo.actuator.applied",
            ActionOutcome::NoChange => "keebo.actuator.no_change",
            ActionOutcome::Failed(_) => "keebo.actuator.failed",
        };
        keebo_obs::global().counter(outcome_metric).inc();
        self.log.push(entry);
        outcome
    }

    /// Applies `action` from `current` config, charging command overhead and
    /// logging. Benign state races (already suspended/running) count as
    /// `NoChange`; transient control-plane errors are retried in-line.
    pub fn apply(
        &mut self,
        sim: &mut Simulator,
        wh: WarehouseId,
        current: &WarehouseConfig,
        action: AgentAction,
        reason: Reason,
    ) -> ActionOutcome {
        let commands = action.to_commands(current);
        self.execute(sim, wh, &commands, action, reason)
    }

    /// Applies raw commands (rollbacks, the analytic auto-suspend,
    /// reconciler re-drives — moves that aren't a single agent action).
    /// Logged as one entry under `action = NoOp`; its kind follows from
    /// `reason`.
    pub fn apply_commands(
        &mut self,
        sim: &mut Simulator,
        wh: WarehouseId,
        commands: &[WarehouseCommand],
        reason: Reason,
    ) -> ActionOutcome {
        self.execute(sim, wh, commands, AgentAction::NoOp, reason)
    }

    /// Full action history.
    pub fn log(&self) -> &[ActionLogEntry] {
        &self.log
    }

    /// Count of effective (Applied) actions.
    pub fn applied_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| e.outcome() == ActionOutcome::Applied)
            .count()
    }

    /// Count of failures.
    pub fn failure_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| matches!(e.outcome(), ActionOutcome::Failed(_)))
            .count()
    }

    /// Count of rollback entries.
    pub fn rollback_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| e.kind() == LogEntryKind::Rollback)
            .count()
    }

    /// Count of reconcile entries.
    pub fn reconcile_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| e.kind() == LogEntryKind::Reconcile)
            .count()
    }

    /// Total in-line transient retries performed: every attempt of a
    /// command beyond its first.
    pub fn transient_retries(&self) -> u64 {
        self.log
            .iter()
            .flat_map(|e| &e.commands)
            .map(|c| u64::from(c.attempts.saturating_sub(1)))
            .sum()
    }

    /// Appends previously recorded entries (crash recovery — the commands
    /// already ran, only the record is restored).
    pub(crate) fn extend_log(&mut self, entries: impl IntoIterator<Item = ActionLogEntry>) {
        self.log.extend(entries);
    }
}

/// The scaling policies in tag order.
pub(crate) const POLICIES: [ScalingPolicy; 3] = [
    ScalingPolicy::Standard,
    ScalingPolicy::Economy,
    ScalingPolicy::Maximized,
];

/// Appends `entries` as one log section (`nn::le`): a count, then per entry
/// its time, its action's and reason's indices in `ALL` and its commands,
/// each a tagged command, a tagged status and the attempts. No entry
/// carries a name: a section is one warehouse's.
pub fn encode_log(entries: &[ActionLogEntry], out: &mut Vec<u8>) {
    le::put_usize(out, entries.len());
    for e in entries {
        le::put_u64(out, e.at);
        out.extend([e.action.index() as u8, e.reason as u8]);
        le::put_usize(out, e.commands.len());
        for c in &e.commands {
            put_command(out, c.command);
            put_status(out, &c.status);
            le::put_u64(out, u64::from(c.attempts));
        }
    }
}

fn put_command(out: &mut Vec<u8>, command: WarehouseCommand) {
    match command {
        WarehouseCommand::SetSize(size) => out.extend([0, size.index() as u8]),
        WarehouseCommand::SetAutoSuspend { ms } => {
            out.push(1);
            le::put_u64(out, ms);
        }
        WarehouseCommand::SetClusterRange { min, max } => {
            out.push(2);
            le::put_u64(out, min.into());
            le::put_u64(out, max.into());
        }
        WarehouseCommand::SetScalingPolicy(policy) => out.extend([3, policy as u8]),
        WarehouseCommand::Suspend => out.push(4),
        WarehouseCommand::Resume => out.push(5),
    }
}

/// One tag for a status and, if it failed, its error; then an error's text.
fn put_status(out: &mut Vec<u8>, status: &CommandStatus) {
    let (tag, text) = match status {
        CommandStatus::Applied => (0, None),
        CommandStatus::NoChange => (1, None),
        CommandStatus::Skipped => (2, None),
        CommandStatus::Failed(AlterError::UnknownWarehouse(name)) => (3, Some(name)),
        CommandStatus::Failed(AlterError::InvalidConfig(message)) => (4, Some(message)),
        CommandStatus::Failed(AlterError::AlreadySuspended) => (5, None),
        CommandStatus::Failed(AlterError::AlreadyRunning) => (6, None),
        CommandStatus::Failed(AlterError::ServiceUnavailable) => (7, None),
        CommandStatus::Failed(AlterError::Throttled) => (8, None),
    };
    out.push(tag);
    if let Some(text) = text {
        le::put_str(out, text);
    }
}

/// `table[tag]`, or an error naming `what` the tag failed to be.
pub(crate) fn tagged<T: Copy>(table: &[T], tag: u8, what: &str) -> Result<T, String> {
    table
        .get(usize::from(tag))
        .copied()
        .ok_or_else(|| format!("unknown {what} tag {tag}"))
}

pub(crate) fn read_u32(r: &mut Reader) -> Result<u32, String> {
    let n = r.u64()?;
    u32::try_from(n).map_err(|_| format!("{n} does not fit a u32"))
}

/// The inverse of [`encode_log`], total: short, lying or trailing bytes are
/// an `Err`, never a panic.
pub fn decode_log(bytes: &[u8]) -> Result<Vec<ActionLogEntry>, String> {
    let mut r = Reader::new(bytes);
    let entries = read_log(&mut r)?;
    r.finish()?;
    Ok(entries)
}

/// Reads one [`encode_log`] section off `r`, leaving what follows it.
pub(crate) fn read_log(r: &mut Reader) -> Result<Vec<ActionLogEntry>, String> {
    // An entry is at least a time, two tags and a count; a command two tags
    // and its attempts.
    r.seq(8 + 2 + 8, |r| {
        Ok(ActionLogEntry {
            at: r.u64()?,
            action: tagged(&AgentAction::ALL, r.u8()?, "action")?,
            reason: tagged(&Reason::ALL, r.u8()?, "reason")?,
            commands: r.seq(2 + 8, |r| {
                Ok(CommandOutcome {
                    command: read_command(r)?,
                    status: read_status(r)?,
                    attempts: read_u32(r)?,
                })
            })?,
        })
    })
}

fn read_command(r: &mut Reader) -> Result<WarehouseCommand, String> {
    Ok(match r.u8()? {
        0 => WarehouseCommand::SetSize(tagged(&WarehouseSize::ALL, r.u8()?, "size")?),
        1 => WarehouseCommand::SetAutoSuspend { ms: r.u64()? },
        2 => WarehouseCommand::SetClusterRange {
            min: read_u32(r)?,
            max: read_u32(r)?,
        },
        3 => WarehouseCommand::SetScalingPolicy(tagged(&POLICIES, r.u8()?, "scaling policy")?),
        4 => WarehouseCommand::Suspend,
        5 => WarehouseCommand::Resume,
        tag => return Err(format!("unknown command tag {tag}")),
    })
}

fn read_status(r: &mut Reader) -> Result<CommandStatus, String> {
    let failed = CommandStatus::Failed;
    Ok(match r.u8()? {
        0 => CommandStatus::Applied,
        1 => CommandStatus::NoChange,
        2 => CommandStatus::Skipped,
        3 => failed(AlterError::UnknownWarehouse(r.str()?)),
        4 => failed(AlterError::InvalidConfig(r.str()?)),
        5 => failed(AlterError::AlreadySuspended),
        6 => failed(AlterError::AlreadyRunning),
        7 => failed(AlterError::ServiceUnavailable),
        8 => failed(AlterError::Throttled),
        tag => return Err(format!("unknown status tag {tag}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{Account, FaultPlan, WarehouseSize, HOUR_MS};

    fn setup() -> (Simulator, WarehouseId, WarehouseConfig) {
        let mut account = Account::new();
        let cfg = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
        let wh = account.create_warehouse("WH", cfg.clone());
        (Simulator::new(account), wh, cfg)
    }

    fn setup_faulted(plan: FaultPlan) -> (Simulator, WarehouseId, WarehouseConfig) {
        let mut account = Account::new();
        let cfg = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
        let wh = account.create_warehouse("WH", cfg.clone());
        (Simulator::with_faults(account, plan, 99), wh, cfg)
    }

    #[test]
    fn size_down_applies_and_logs_sql() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        let out = act.apply(&mut sim, wh, &cfg, AgentAction::SizeDown, Reason::Policy);
        assert_eq!(out, ActionOutcome::Applied);
        assert_eq!(act.log().len(), 1);
        assert_eq!(
            act.log()[0].sql("WH").collect::<Vec<_>>(),
            ["ALTER WAREHOUSE WH SET WAREHOUSE_SIZE=SMALL"]
        );
        assert_eq!(sim.account().describe(wh).config.size, WarehouseSize::Small);
        assert_eq!(act.applied_count(), 1);
        assert_eq!(act.log()[0].kind(), LogEntryKind::Action);
        assert_eq!(act.log()[0].commands.len(), 1);
        assert_eq!(act.log()[0].commands[0].status, CommandStatus::Applied);
        assert_eq!(act.log()[0].commands[0].attempts, 1);
    }

    #[test]
    fn noop_logs_no_change_and_no_overhead() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        let out = act.apply(&mut sim, wh, &cfg, AgentAction::NoOp, Reason::Policy);
        assert_eq!(out, ActionOutcome::NoChange);
        assert_eq!(sim.account().ledger().overhead().total(), 0.0);
    }

    #[test]
    fn commands_charge_overhead() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        act.apply(&mut sim, wh, &cfg, AgentAction::SizeUp, Reason::Policy);
        let overhead = sim.account().ledger().overhead().total();
        assert!((overhead - COST_PER_COMMAND).abs() < 1e-12);
    }

    #[test]
    fn suspending_twice_is_benign() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        assert_eq!(
            act.apply(&mut sim, wh, &cfg, AgentAction::SuspendNow, Reason::Policy),
            ActionOutcome::NoChange,
            "warehouse starts suspended: AlreadySuspended is benign"
        );
        assert_eq!(act.failure_count(), 0);
        assert_eq!(act.log()[0].commands[0].status, CommandStatus::NoChange);
    }

    #[test]
    fn log_preserves_reason_and_time() {
        let (mut sim, wh, cfg) = setup();
        sim.run_until(12_345);
        let mut act = Actuator::new();
        act.apply(&mut sim, wh, &cfg, AgentAction::ClustersUp, Reason::Backoff);
        let e = &act.log()[0];
        assert_eq!(e.at, 12_345);
        assert_eq!(e.reason, Reason::Backoff);
        assert_eq!(e.action, AgentAction::ClustersUp);
    }

    #[test]
    fn transient_errors_are_retried_inline() {
        // Every ALTER in the first hour fails: retries exhaust and fail.
        let plan = FaultPlan::none().with_alter_burst(0, HOUR_MS, 1.0);
        let (mut sim, wh, cfg) = setup_faulted(plan);
        let mut act = Actuator::new();
        let out = act.apply(&mut sim, wh, &cfg, AgentAction::SizeDown, Reason::Policy);
        assert!(matches!(out, ActionOutcome::Failed(_)));
        let e = &act.log()[0];
        assert_eq!(e.commands[0].attempts, 1 + MAX_TRANSIENT_RETRIES);
        assert_eq!(act.transient_retries(), u64::from(MAX_TRANSIENT_RETRIES));
        assert!(matches!(e.commands[0].status, CommandStatus::Failed(_)));
        // Config untouched.
        assert_eq!(
            sim.account().describe(wh).config.size,
            WarehouseSize::Medium
        );
        // Each attempt billed.
        let overhead = sim.account().ledger().overhead().total();
        let expected = COST_PER_COMMAND * (1 + MAX_TRANSIENT_RETRIES) as f64;
        assert!((overhead - expected).abs() < 1e-12);
    }

    #[test]
    fn retry_succeeds_when_fault_is_intermittent() {
        // ~50% failure probability: with 2 retries most commands get through;
        // run several and require at least one success with attempts > 1.
        let plan = FaultPlan::none().with_alter_burst(0, HOUR_MS, 0.5);
        let (mut sim, wh, _cfg) = setup_faulted(plan);
        let mut act = Actuator::new();
        for _ in 0..12 {
            let cur = sim.account().describe(wh).config.clone();
            let action = if cur.size == WarehouseSize::Medium {
                AgentAction::SizeDown
            } else {
                AgentAction::SizeUp
            };
            act.apply(&mut sim, wh, &cur, action, Reason::Policy);
        }
        let retried_ok = act.log().iter().any(|e| {
            e.commands
                .iter()
                .any(|c| c.status == CommandStatus::Applied && c.attempts > 1)
        });
        assert!(retried_ok, "expected at least one successful retry");
    }

    #[test]
    fn partial_application_marks_later_commands_skipped() {
        let (mut sim, wh, _cfg) = setup();
        let mut act = Actuator::new();
        let cmds = [
            cdw_sim::WarehouseCommand::SetAutoSuspend { ms: 60_000 },
            cdw_sim::WarehouseCommand::SetClusterRange { min: 3, max: 2 }, // invalid
            cdw_sim::WarehouseCommand::SetSize(WarehouseSize::Small),
        ];
        let out = act.apply_commands(&mut sim, wh, &cmds, Reason::BackoffRollback);
        assert!(matches!(
            out,
            ActionOutcome::Failed(AlterError::InvalidConfig(_))
        ));
        let e = &act.log()[0];
        assert_eq!((e.outcome(), e.kind()), (out, LogEntryKind::Rollback));
        assert_eq!(e.commands[0].status, CommandStatus::Applied);
        assert!(matches!(e.commands[1].status, CommandStatus::Failed(_)));
        assert_eq!(e.commands[2].status, CommandStatus::Skipped);
        assert_eq!(e.commands[2].attempts, 0);
        // The skipped resize really did not run.
        assert_eq!(
            sim.account().describe(wh).config.size,
            WarehouseSize::Medium
        );
        assert_eq!(act.rollback_count(), 1);
    }

    #[test]
    fn permanent_errors_fail_without_retry() {
        let (mut sim, wh, _cfg) = setup();
        let mut act = Actuator::new();
        let cmds = [cdw_sim::WarehouseCommand::SetClusterRange { min: 0, max: 2 }];
        let out = act.apply_commands(&mut sim, wh, &cmds, Reason::ReconcileDrift);
        assert!(matches!(out, ActionOutcome::Failed(_)));
        assert_eq!(
            act.log()[0].commands[0].attempts,
            1,
            "no retry on InvalidConfig"
        );
        assert_eq!(act.transient_retries(), 0);
        assert_eq!(act.reconcile_count(), 1);
    }

    #[test]
    fn every_reason_round_trips_as_its_text() {
        let texts = [
            "observing",
            "paused:external-change",
            "paused",
            "frozen",
            "degraded:mid-repair",
            "degraded-fallback",
            "policy",
            "backoff-rollback",
            "backoff",
            "capacity-decay",
            "external-revert",
            "auto-suspend-optimizer",
            "reconcile-drift",
        ];
        assert_eq!(Reason::ALL.map(Reason::as_str), texts);
        for reason in Reason::ALL {
            assert_eq!(reason.to_string(), reason.as_str());
            // Its text names it alone.
            let named = Reason::ALL
                .into_iter()
                .filter(|r| r.as_str() == reason.as_str());
            assert_eq!(named.collect::<Vec<_>>(), [reason]);
        }
    }

    /// Entries that between them hold every reason, action, command (each
    /// size and scaling policy) and status, every error with it.
    fn every_kind_of_entry() -> Vec<ActionLogEntry> {
        let errors = [
            AlterError::UnknownWarehouse("\"WH\" — Lager ☃".into()),
            AlterError::InvalidConfig(String::new()),
            AlterError::InvalidConfig("MIN \\ \"3\" > MAX ∞".into()),
            AlterError::AlreadySuspended,
            AlterError::AlreadyRunning,
            AlterError::ServiceUnavailable,
            AlterError::Throttled,
        ];
        let statuses = [
            CommandStatus::Applied,
            CommandStatus::NoChange,
            CommandStatus::Skipped,
        ]
        .into_iter()
        .chain(errors.into_iter().map(CommandStatus::Failed));
        let mut commands = WarehouseSize::ALL.map(WarehouseCommand::SetSize).to_vec();
        commands.extend(POLICIES.map(WarehouseCommand::SetScalingPolicy));
        commands.extend([
            WarehouseCommand::SetAutoSuspend { ms: u64::MAX },
            WarehouseCommand::SetClusterRange {
                min: 0,
                max: u32::MAX,
            },
            WarehouseCommand::Suspend,
            WarehouseCommand::Resume,
        ]);
        let outcomes: Vec<CommandOutcome> =
            (commands.into_iter().zip(statuses.cycle()).enumerate())
                .map(|(i, (command, status))| CommandOutcome {
                    command,
                    status,
                    attempts: [0, 1, u32::MAX][i % 3],
                })
                .collect();
        (Reason::ALL.into_iter().enumerate())
            .map(|(i, reason)| ActionLogEntry {
                at: i as u64 * 600_000,
                action: AgentAction::ALL[i % AgentAction::COUNT],
                reason,
                commands: outcomes[i..].to_vec(),
            })
            .collect()
    }

    #[test]
    fn a_log_section_round_trips_every_value_bit_for_bit() {
        let entries = every_kind_of_entry();
        let statuses: Vec<_> = entries
            .iter()
            .flat_map(|e| &e.commands)
            .map(|c| &c.status)
            .collect();
        assert!(statuses.contains(&&CommandStatus::Failed(AlterError::Throttled)));
        assert!(entries.iter().any(|e| e.action == AgentAction::SuspendNow));
        let mut bytes = Vec::new();
        encode_log(&entries, &mut bytes);
        let back = decode_log(&bytes).unwrap();
        assert_eq!(back, entries);
        let mut again = Vec::new();
        encode_log(&back, &mut again);
        assert_eq!(again, bytes, "decode then encode reproduces the section");
        // The tags are the indices in `ALL`.
        assert!(Reason::ALL
            .iter()
            .enumerate()
            .all(|(i, r)| *r as usize == i));
        assert_eq!(bytes[8 + 8..8 + 10], [0, 0], "entry 0: NoOp, observing");
        let mut empty = Vec::new();
        encode_log(&[], &mut empty);
        assert_eq!(decode_log(&empty), Ok(Vec::new()));
    }

    #[test]
    fn a_log_section_with_an_unknown_tag_or_a_lying_count_is_refused() {
        let mut bytes = Vec::new();
        encode_log(&every_kind_of_entry()[..1], &mut bytes);
        // Entry 0's action, then its reason, past the end of `ALL`.
        for (at, what) in [(16, "action"), (17, "reason")] {
            let mut bad = bytes.clone();
            bad[at] = 13;
            let err = decode_log(&bad).unwrap_err();
            assert_eq!(err, format!("unknown {what} tag 13"));
        }
        // 2^60 entries claimed, one present: refused before it reserves.
        let mut lying = bytes.clone();
        lying[..8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(decode_log(&lying).unwrap_err().contains("cannot fit"));
    }

    /// An entry holds each command as data and its reason; its SQL, outcome
    /// and kind are derived on read.
    #[test]
    fn a_log_entry_derives_its_sql_outcome_and_kind() {
        let (mut sim, wh, _cfg) = setup();
        sim.run_until(12_345);
        let mut act = Actuator::new();
        let cmds = [
            cdw_sim::WarehouseCommand::SetAutoSuspend { ms: 60_000 },
            cdw_sim::WarehouseCommand::SetClusterRange { min: 3, max: 2 },
        ];
        act.apply_commands(&mut sim, wh, &cmds, Reason::BackoffRollback);
        let entry = &act.log()[0];
        assert_eq!((entry.at, entry.action), (12_345, AgentAction::NoOp));
        assert_eq!(
            entry.sql("WH").collect::<Vec<_>>(),
            [
                "ALTER WAREHOUSE WH SET AUTO_SUSPEND=60",
                "ALTER WAREHOUSE WH SET MIN_CLUSTER_COUNT=3 MAX_CLUSTER_COUNT=2"
            ]
        );
        let ActionOutcome::Failed(error) = entry.outcome() else {
            panic!("{:?}", entry.outcome());
        };
        assert_eq!(
            error.to_string(),
            "invalid configuration: MIN_CLUSTER_COUNT (3) exceeds MAX_CLUSTER_COUNT (2)"
        );
        assert_eq!(entry.kind(), LogEntryKind::Rollback);
    }
}
