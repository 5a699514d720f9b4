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

use agent::AgentAction;
use cdw_sim::{
    ActionSource, AlterError, SimTime, Simulator, WarehouseCommand, WarehouseConfig, WarehouseId,
    WarehouseName,
};
use serde::{Deserialize, Serialize};

/// How one action application ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionOutcome {
    /// All commands applied.
    Applied,
    /// Nothing needed doing (NoOp or saturated move).
    NoChange,
    /// The CDW rejected a command; carries the rendered error.
    Failed(String),
}

/// How a single command within an action ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandStatus {
    /// The command took effect.
    Applied,
    /// Benign state race (already suspended / already running).
    NoChange,
    /// The command failed after exhausting retries; carries the error.
    Failed(String),
    /// Never attempted: an earlier command in the same action failed.
    Skipped,
}

/// Per-command record inside one log entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandOutcome {
    pub sql: String,
    pub status: CommandStatus,
    /// Attempts made (1 for a clean apply; >1 means transient retries).
    pub attempts: u32,
}

/// What kind of control-plane activity a log entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogEntryKind {
    /// A policy (or heuristic) action chosen by the optimizer.
    Action,
    /// A rollback to a previous configuration (back-off, external revert).
    Rollback,
    /// The reconciler re-driving the warehouse toward its desired config.
    Reconcile,
}

/// One entry in the action log — this is what the web portal's "real-time
/// actions taken on each warehouse" view renders (§4.1).
///
/// Each SQL statement is stored once, in its [`CommandOutcome`];
/// [`ActionLogEntry::sql`] lists them. The JSON form still carries the
/// `"sql"` array after `action` (see the `Serialize` impl), and reading one
/// back ignores it.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ActionLogEntry {
    pub at: SimTime,
    /// The warehouse's shared name handle (see [`WarehouseName`]).
    pub warehouse: WarehouseName,
    pub action: AgentAction,
    pub outcome: ActionOutcome,
    /// Why the action was chosen ("policy", "backoff", "external-revert").
    pub reason: String,
    /// What produced this entry (policy action, rollback, reconcile).
    pub kind: LogEntryKind,
    /// Outcome of each individual command, in execution order.
    pub commands: Vec<CommandOutcome>,
}

impl ActionLogEntry {
    /// The SQL the action translated to, in execution order.
    pub fn sql(&self) -> impl Iterator<Item = &str> {
        self.commands.iter().map(|c| c.sql.as_str())
    }
}

/// Field by field, in the order the entry has always been written, with the
/// `"sql"` array derived from `commands` in its old place: persisted and
/// exported bytes are those of an entry that stored each statement twice.
impl Serialize for ActionLogEntry {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"at\":");
        self.at.write_json(out);
        out.push_str(",\"warehouse\":");
        self.warehouse.write_json(out);
        out.push_str(",\"action\":");
        self.action.write_json(out);
        out.push_str(",\"sql\":[");
        for (i, sql) in self.sql().enumerate() {
            if i > 0 {
                out.push(',');
            }
            sql.write_json(out);
        }
        out.push_str("],\"outcome\":");
        self.outcome.write_json(out);
        out.push_str(",\"reason\":");
        self.reason.write_json(out);
        out.push_str(",\"kind\":");
        self.kind.write_json(out);
        out.push_str(",\"commands\":");
        self.commands.write_json(out);
        out.push('}');
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
        warehouse_name: &str,
        commands: &[WarehouseCommand],
    ) -> (ActionOutcome, Vec<CommandOutcome>) {
        let now = sim.now();
        let mut results = Vec::with_capacity(commands.len());
        let mut failed: Option<String> = None;
        let mut any_applied = false;
        for cmd in commands {
            let sql = cmd.to_sql(warehouse_name);
            if failed.is_some() {
                results.push(CommandOutcome {
                    sql,
                    status: CommandStatus::Skipped,
                    attempts: 0,
                });
                continue;
            }
            let (res, attempts) = Self::run_command(sim, wh, *cmd, now);
            let status = match res {
                Ok(()) => {
                    any_applied = true;
                    CommandStatus::Applied
                }
                Err(AlterError::AlreadySuspended) | Err(AlterError::AlreadyRunning) => {
                    CommandStatus::NoChange
                }
                Err(e) => {
                    let msg = e.to_string();
                    failed = Some(msg.clone());
                    CommandStatus::Failed(msg)
                }
            };
            results.push(CommandOutcome {
                sql,
                status,
                attempts,
            });
        }
        let outcome = match failed {
            Some(msg) => ActionOutcome::Failed(msg),
            None if any_applied => ActionOutcome::Applied,
            None => ActionOutcome::NoChange,
        };
        let outcome_metric = match &outcome {
            ActionOutcome::Applied => "keebo.actuator.applied",
            ActionOutcome::NoChange => "keebo.actuator.no_change",
            ActionOutcome::Failed(_) => "keebo.actuator.failed",
        };
        keebo_obs::global().counter(outcome_metric).inc();
        (outcome, results)
    }

    /// Runs `commands` and logs them as one entry under `action` and `kind`,
    /// naming the warehouse by the account's own handle.
    fn execute(
        &mut self,
        sim: &mut Simulator,
        wh: WarehouseId,
        commands: &[WarehouseCommand],
        action: AgentAction,
        kind: LogEntryKind,
        reason: &str,
    ) -> ActionOutcome {
        let at = sim.now();
        let warehouse = sim.account().warehouse(wh).name().clone();
        let (outcome, commands) = Self::run_commands(sim, wh, &warehouse, commands);
        self.log.push(ActionLogEntry {
            at,
            warehouse,
            action,
            outcome: outcome.clone(),
            reason: reason.to_string(),
            kind,
            commands,
        });
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
        reason: &str,
    ) -> ActionOutcome {
        let commands = action.to_commands(current);
        self.execute(sim, wh, &commands, action, LogEntryKind::Action, reason)
    }

    /// Applies raw commands under an explicit entry kind (rollbacks, §4.3
    /// restores, reconciler re-drives — multi-knob moves that aren't a
    /// single agent action). Logged as one entry under `action = NoOp`.
    pub fn apply_commands(
        &mut self,
        sim: &mut Simulator,
        wh: WarehouseId,
        commands: &[WarehouseCommand],
        kind: LogEntryKind,
        reason: &str,
    ) -> ActionOutcome {
        self.execute(sim, wh, commands, AgentAction::NoOp, kind, reason)
    }

    /// Full action history.
    pub fn log(&self) -> &[ActionLogEntry] {
        &self.log
    }

    /// Count of effective (Applied) actions.
    pub fn applied_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| e.outcome == ActionOutcome::Applied)
            .count()
    }

    /// Count of failures.
    pub fn failure_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| matches!(e.outcome, ActionOutcome::Failed(_)))
            .count()
    }

    /// Count of rollback entries.
    pub fn rollback_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| e.kind == LogEntryKind::Rollback)
            .count()
    }

    /// Count of reconcile entries.
    pub fn reconcile_count(&self) -> usize {
        self.log
            .iter()
            .filter(|e| e.kind == LogEntryKind::Reconcile)
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

    /// Appends previously recorded entries (WAL replay during crash
    /// recovery — the commands already ran, only the record is restored).
    /// An entry naming `name`'s warehouse shares that handle instead of the
    /// copy its decoding allocated.
    pub(crate) fn extend_log(
        &mut self,
        name: &WarehouseName,
        entries: impl IntoIterator<Item = ActionLogEntry>,
    ) {
        self.log.extend(entries.into_iter().map(|mut e| {
            if e.warehouse == *name {
                e.warehouse = name.clone();
            }
            e
        }));
    }
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
        let out = act.apply(&mut sim, wh, &cfg, AgentAction::SizeDown, "policy");
        assert_eq!(out, ActionOutcome::Applied);
        assert_eq!(act.log().len(), 1);
        assert_eq!(
            act.log()[0].sql().collect::<Vec<_>>(),
            ["ALTER WAREHOUSE WH SET WAREHOUSE_SIZE=SMALL"]
        );
        assert_eq!(sim.account().describe(wh).config.size, WarehouseSize::Small);
        assert_eq!(act.applied_count(), 1);
        assert_eq!(act.log()[0].kind, LogEntryKind::Action);
        assert_eq!(act.log()[0].commands.len(), 1);
        assert_eq!(act.log()[0].commands[0].status, CommandStatus::Applied);
        assert_eq!(act.log()[0].commands[0].attempts, 1);
    }

    #[test]
    fn noop_logs_no_change_and_no_overhead() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        let out = act.apply(&mut sim, wh, &cfg, AgentAction::NoOp, "policy");
        assert_eq!(out, ActionOutcome::NoChange);
        assert_eq!(sim.account().ledger().overhead().total(), 0.0);
    }

    #[test]
    fn commands_charge_overhead() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        act.apply(&mut sim, wh, &cfg, AgentAction::SizeUp, "policy");
        let overhead = sim.account().ledger().overhead().total();
        assert!((overhead - COST_PER_COMMAND).abs() < 1e-12);
    }

    #[test]
    fn suspending_twice_is_benign() {
        let (mut sim, wh, cfg) = setup();
        let mut act = Actuator::new();
        assert_eq!(
            act.apply(&mut sim, wh, &cfg, AgentAction::SuspendNow, "policy"),
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
        act.apply(&mut sim, wh, &cfg, AgentAction::ClustersUp, "backoff");
        let e = &act.log()[0];
        assert_eq!(e.at, 12_345);
        assert_eq!(e.reason, "backoff");
        assert_eq!(e.action, AgentAction::ClustersUp);
    }

    #[test]
    fn transient_errors_are_retried_inline() {
        // Every ALTER in the first hour fails: retries exhaust and fail.
        let plan = FaultPlan::none().with_alter_burst(0, HOUR_MS, 1.0);
        let (mut sim, wh, cfg) = setup_faulted(plan);
        let mut act = Actuator::new();
        let out = act.apply(&mut sim, wh, &cfg, AgentAction::SizeDown, "policy");
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
            act.apply(&mut sim, wh, &cur, action, "policy");
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
        let out = act.apply_commands(
            &mut sim,
            wh,
            &cmds,
            LogEntryKind::Rollback,
            "backoff-rollback",
        );
        assert!(matches!(out, ActionOutcome::Failed(_)));
        let e = &act.log()[0];
        assert_eq!(e.kind, LogEntryKind::Rollback);
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
        let out = act.apply_commands(&mut sim, wh, &cmds, LogEntryKind::Reconcile, "reconcile");
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
    fn log_entry_json_is_pinned_and_round_trips() {
        // Captured while the entry still stored its `sql` beside `commands`
        // and its name as a `String`.
        const PINNED: &str = concat!(
            r#"{"at":12345,"warehouse":"WH","action":"NoOp","sql":["#,
            r#""ALTER WAREHOUSE WH SET AUTO_SUSPEND=60","#,
            r#""ALTER WAREHOUSE WH SET MIN_CLUSTER_COUNT=3 MAX_CLUSTER_COUNT=2"],"#,
            r#""outcome":{"Failed":"invalid configuration: MIN_CLUSTER_COUNT (3) exceeds MAX_CLUSTER_COUNT (2)"},"#,
            r#""reason":"backoff-rollback","kind":"Rollback","commands":["#,
            r#"{"sql":"ALTER WAREHOUSE WH SET AUTO_SUSPEND=60","status":"Applied","attempts":1},"#,
            r#"{"sql":"ALTER WAREHOUSE WH SET MIN_CLUSTER_COUNT=3 MAX_CLUSTER_COUNT=2","#,
            r#""status":{"Failed":"invalid configuration: MIN_CLUSTER_COUNT (3) exceeds MAX_CLUSTER_COUNT (2)"},"attempts":1}]}"#,
        );
        let (mut sim, wh, _cfg) = setup();
        sim.run_until(12_345);
        let mut act = Actuator::new();
        let cmds = [
            cdw_sim::WarehouseCommand::SetAutoSuspend { ms: 60_000 },
            cdw_sim::WarehouseCommand::SetClusterRange { min: 3, max: 2 },
        ];
        act.apply_commands(
            &mut sim,
            wh,
            &cmds,
            LogEntryKind::Rollback,
            "backoff-rollback",
        );
        let entry = &act.log()[0];
        let json = serde_json::to_string(entry).unwrap();
        assert_eq!(json, PINNED);
        let back: ActionLogEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, entry);
        assert!(
            WarehouseName::ptr_eq(&entry.warehouse, sim.account().warehouse(wh).name()),
            "the entry shares the account's name"
        );
    }
}
