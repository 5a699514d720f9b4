//! Desired-state reconciliation for warehouse configuration.
//!
//! The actuator fires commands; this module remembers what the
//! configuration is *supposed* to be and keeps re-driving the warehouse
//! toward it until the observed config matches. That closes the two gaps a
//! flaky control plane opens:
//!
//! * a command that failed transiently (service blip, throttling) is not
//!   lost — the intent is recorded and retried next tick;
//! * a command the CDW acknowledged but applied late, or a partially
//!   applied multi-command action, converges instead of drifting.
//!
//! Retries follow capped exponential backoff with deterministic jitter
//! drawn from the reconciler's own seeded RNG, so a run is reproducible
//! and simultaneous reconcilers don't retry in lockstep.

use crate::actuator::{ActionOutcome, Actuator, Reason};
use crate::drng::DetRng;
use cdw_sim::{SimTime, Simulator, WarehouseConfig, WarehouseId, MINUTE_MS};
use rand::Rng;

/// First retry delay after a failure.
const BASE_BACKOFF_MS: SimTime = 10 * MINUTE_MS;
/// Backoff ceiling.
const MAX_BACKOFF_MS: SimTime = 2 * 60 * MINUTE_MS;
/// Jitter as a fraction of the computed backoff (± this fraction).
const JITTER_FRACTION: f64 = 0.2;

/// What one reconciliation pass concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileOutcome {
    /// No desired config recorded; nothing to do.
    Idle,
    /// Observed config already matches the desired config.
    InSync,
    /// A retry is scheduled later; this pass did nothing.
    Backoff { until: SimTime },
    /// Drift was found and the repair commands all applied.
    Repaired,
    /// Drift was found but re-driving it failed; backoff extended.
    Failed,
}

/// Tracks the desired configuration of one warehouse and re-drives drift.
/// Journaled whole with the control state (the jitter RNG included) so the
/// durable control plane can freeze and resume backoff schedules
/// bit-identically across a crash.
#[derive(Debug, Clone)]
pub struct Reconciler {
    pub(crate) desired: Option<WarehouseConfig>,
    pub(crate) next_attempt_at: SimTime,
    pub(crate) consecutive_failures: u32,
    pub(crate) rng: DetRng,
}

impl Reconciler {
    pub fn new(seed: u64) -> Self {
        Self {
            desired: None,
            next_attempt_at: 0,
            consecutive_failures: 0,
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// Records the configuration the control plane intends the warehouse to
    /// have. Replacing the intent clears any pending backoff — new intent
    /// is actionable immediately.
    pub fn set_desired(&mut self, cfg: WarehouseConfig) {
        self.desired = Some(cfg);
        self.next_attempt_at = 0;
        self.consecutive_failures = 0;
    }

    /// The recorded intent, if any.
    pub fn desired(&self) -> Option<&WarehouseConfig> {
        self.desired.as_ref()
    }

    /// Drops the intent (e.g. when an external change wins and the observed
    /// config becomes the new truth).
    pub fn clear(&mut self) {
        self.desired = None;
        self.next_attempt_at = 0;
        self.consecutive_failures = 0;
    }

    /// Consecutive failed repair attempts (feeds the health state machine).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// When the next repair attempt is allowed (0 = immediately).
    pub fn next_attempt_at(&self) -> SimTime {
        self.next_attempt_at
    }

    fn schedule_backoff(&mut self, now: SimTime) {
        self.consecutive_failures += 1;
        let exp = self.consecutive_failures.saturating_sub(1).min(16);
        let base = BASE_BACKOFF_MS
            .saturating_mul(1u64 << exp)
            .min(MAX_BACKOFF_MS);
        // Deterministic jitter in [-f, +f] of the base.
        let scale = 1.0 + self.rng.gen_range(-JITTER_FRACTION..JITTER_FRACTION);
        self.next_attempt_at = now + ((base as f64) * scale) as SimTime;
    }

    /// One reconciliation pass at `now`: diff observed vs desired and, if
    /// the backoff window allows, re-drive the difference through the
    /// actuator (logged under [`Reason::ReconcileDrift`], a `Reconcile`
    /// entry).
    pub fn reconcile(
        &mut self,
        sim: &mut Simulator,
        actuator: &mut Actuator,
        wh: WarehouseId,
    ) -> ReconcileOutcome {
        let now = sim.now();
        let Some(desired) = self.desired.clone() else {
            return ReconcileOutcome::Idle;
        };
        let observed = sim.account().describe(wh).config.clone();
        let cmds = observed.commands_to(&desired);
        if cmds.is_empty() {
            self.consecutive_failures = 0;
            self.next_attempt_at = 0;
            return ReconcileOutcome::InSync;
        }
        if now < self.next_attempt_at {
            return ReconcileOutcome::Backoff {
                until: self.next_attempt_at,
            };
        }
        match actuator.apply_commands(sim, wh, &cmds, Reason::ReconcileDrift) {
            ActionOutcome::Failed(_) => {
                self.schedule_backoff(now);
                keebo_obs::global()
                    .counter("keebo.reconciler.retries")
                    .inc();
                ReconcileOutcome::Failed
            }
            _ => {
                self.consecutive_failures = 0;
                self.next_attempt_at = 0;
                keebo_obs::global()
                    .counter("keebo.reconciler.repairs")
                    .inc();
                ReconcileOutcome::Repaired
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{Account, FaultPlan, WarehouseSize, HOUR_MS};

    fn setup(plan: FaultPlan) -> (Simulator, WarehouseId, WarehouseConfig) {
        let mut account = Account::new();
        let cfg = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
        let wh = account.create_warehouse("WH", cfg.clone());
        (Simulator::with_faults(account, plan, 5), wh, cfg)
    }

    #[test]
    fn in_sync_when_no_drift() {
        let (mut sim, wh, cfg) = setup(FaultPlan::none());
        let mut rec = Reconciler::new(1);
        let mut act = Actuator::new();
        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::Idle
        );
        rec.set_desired(cfg);
        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::InSync
        );
        assert!(act.log().is_empty(), "no commands issued when in sync");
    }

    #[test]
    fn repairs_drift_toward_desired() {
        let (mut sim, wh, cfg) = setup(FaultPlan::none());
        let mut rec = Reconciler::new(1);
        let mut act = Actuator::new();
        let mut want = cfg;
        want.size = WarehouseSize::Small;
        want.auto_suspend_ms = 60_000;
        rec.set_desired(want.clone());
        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::Repaired
        );
        assert_eq!(sim.account().describe(wh).config, want);
        assert_eq!(act.reconcile_count(), 1);
        // And the next pass sees it in sync.
        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::InSync
        );
    }

    #[test]
    fn failure_schedules_exponential_backoff() {
        // ALTERs always fail for the first 12 hours.
        let (mut sim, wh, cfg) = setup(FaultPlan::none().with_alter_burst(0, 12 * HOUR_MS, 1.0));
        let mut rec = Reconciler::new(1);
        let mut act = Actuator::new();
        let mut want = cfg;
        want.size = WarehouseSize::Small;
        rec.set_desired(want.clone());

        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::Failed
        );
        assert_eq!(rec.consecutive_failures(), 1);
        let first_retry = rec.next_attempt_at();
        assert!(first_retry > 0);

        // Until the backoff elapses the reconciler stays quiet.
        assert!(matches!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::Backoff { .. }
        ));

        // Step past each retry: failures accumulate, gaps grow (up to jitter).
        let mut gaps = Vec::new();
        for _ in 0..3 {
            let at = rec.next_attempt_at();
            sim.run_until(at);
            assert_eq!(
                rec.reconcile(&mut sim, &mut act, wh),
                ReconcileOutcome::Failed
            );
            gaps.push(rec.next_attempt_at() - at);
        }
        assert!(gaps[2] > gaps[0], "backoff should grow: {gaps:?}");

        // Once the fault window ends, the next due attempt repairs.
        let at = rec.next_attempt_at().max(12 * HOUR_MS);
        sim.run_until(at);
        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::Repaired
        );
        assert_eq!(rec.consecutive_failures(), 0);
        assert_eq!(sim.account().describe(wh).config, want);
    }

    #[test]
    fn same_seed_same_backoff_schedule() {
        let schedule = |seed: u64| {
            let (mut sim, wh, cfg) =
                setup(FaultPlan::none().with_alter_burst(0, 24 * HOUR_MS, 1.0));
            let mut rec = Reconciler::new(seed);
            let mut act = Actuator::new();
            let mut want = cfg;
            want.size = WarehouseSize::XSmall;
            rec.set_desired(want);
            let mut times = Vec::new();
            for _ in 0..4 {
                rec.reconcile(&mut sim, &mut act, wh);
                times.push(rec.next_attempt_at());
                sim.run_until(rec.next_attempt_at());
            }
            times
        };
        assert_eq!(schedule(9), schedule(9));
        assert_ne!(
            schedule(9),
            schedule(10),
            "different seeds jitter differently"
        );
    }

    #[test]
    fn new_intent_clears_backoff() {
        let (mut sim, wh, cfg) = setup(FaultPlan::none().with_alter_burst(0, HOUR_MS, 1.0));
        let mut rec = Reconciler::new(1);
        let mut act = Actuator::new();
        let mut want = cfg.clone();
        want.size = WarehouseSize::Small;
        rec.set_desired(want);
        assert_eq!(
            rec.reconcile(&mut sim, &mut act, wh),
            ReconcileOutcome::Failed
        );
        assert!(rec.next_attempt_at() > 0);
        let mut want2 = cfg;
        want2.size = WarehouseSize::Large;
        rec.set_desired(want2);
        assert_eq!(
            rec.next_attempt_at(),
            0,
            "fresh intent is immediately actionable"
        );
        assert_eq!(rec.consecutive_failures(), 0);
    }
}
