//! The control tick: one real-time step of Algorithm 1 (lines 14–23) as a
//! fixed sequence of stages over one per-tick context —
//!
//! ```text
//! sense → assess → (retrain) → gate → decide → reward → act → journal
//! ```
//!
//! Each stage is a private method called in order by `run_stages`. The
//! lifecycle and health flags are folded into one [`Gate`] computed once per
//! tick, and the tick ends in a single plain-data record in the decision ring
//! (`ring.rs`), fed by what the stages produced. `retrain` is the only stage
//! that trains, and it is also what WAL replay re-executes (`restore.rs`);
//! `journal` is the orchestrator's `Journal::journal_tick` around the whole
//! tick, outside the `keebo.tick.wall_us` span.

use super::ring::{Cause, Chosen, Guard, MaskCause, Record};
use super::{tick_wall_histogram, WarehouseOptimizer};
use crate::actuator::Reason;
use crate::health::{DegradeReason, HealthSignals, HealthState};
use crate::monitoring::RealTimeState;
use crate::persist::{RetrainRecord, TickEffects};
use agent::{AgentAction, AgentState, ConstraintSet, PerfSignals};
use cdw_sim::account::WarehouseDescription;
use cdw_sim::{
    QueryRecord, SimTime, Simulator, WarehouseCommand, WarehouseConfig, WarehouseEventRecord,
    HOUR_MS,
};
use keebo_obs::TraceFeatures;
use std::time::Instant;

/// Optimization pause after an external change (§4.4); the admin can also
/// resume explicitly (`Orchestrator::admin_resume`).
const EXTERNAL_PAUSE_MS: SimTime = 12 * HOUR_MS;

/// What a tick may do, decided once from lifecycle and health. DESIGN.md
/// ("The control tick") tabulates, per variant, the condition, what still
/// runs, and the trace reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Gate {
    Observing,
    ExternalChange,
    Paused,
    Frozen,
    MidRepair,
    StaleFallback,
    Optimize,
}

impl Gate {
    /// Precedence: observation mode; then an external change (even while
    /// already paused — the pause restarts); then an active pause (even
    /// while frozen); then health, whose own ordering puts frozen above
    /// stale telemetry above mid-repair.
    pub(super) fn of(
        onboarded: bool,
        paused: bool,
        external_change: bool,
        health: HealthState,
    ) -> Self {
        match (onboarded, external_change, paused, health) {
            (false, ..) => Gate::Observing,
            (_, true, ..) => Gate::ExternalChange,
            (_, _, true, _) => Gate::Paused,
            (.., HealthState::Frozen) => Gate::Frozen,
            (.., HealthState::Degraded(DegradeReason::StaleTelemetry)) => Gate::StaleFallback,
            // Actuation failures or config drift: proposing new moves now
            // would thrash the intent the reconciler is still converging on.
            (.., HealthState::Degraded(_)) => Gate::MidRepair,
            (.., HealthState::Healthy) => Gate::Optimize,
        }
    }

    /// The trace reason of a tick that ends at this gate. `Optimize` names
    /// the default; back-off and capacity decay substitute their own.
    pub(super) fn reason(self) -> Reason {
        match self {
            Gate::Observing => Reason::Observing,
            Gate::ExternalChange => Reason::PausedExternalChange,
            Gate::Paused => Reason::Paused,
            Gate::Frozen => Reason::Frozen,
            Gate::MidRepair => Reason::MidRepair,
            Gate::StaleFallback => Reason::DegradedFallback,
            Gate::Optimize => Reason::Policy,
        }
    }

    /// Health withholds part of the pipeline (the warehouse is still ours
    /// to drive, unlike `Paused`).
    fn degraded(self) -> bool {
        matches!(self, Gate::Frozen | Gate::MidRepair | Gate::StaleFallback)
    }
}

/// What one tick observed, read once and handed down the stages.
pub(super) struct TickCtx {
    pub(super) now: SimTime,
    pub(super) health: HealthState,
    /// Live control-plane view of the warehouse (config, queue, suspended).
    pub(super) desc: WarehouseDescription,
    pub(super) cache_warm: f64,
    /// Monitoring feedback over the last interval (line 18).
    pub(super) rts: RealTimeState,
}

/// An action mask under construction, remembering *why* each masked action
/// was masked: the customer's rules (C1–C4 style business rules, by
/// position), the analytic slider floor, the performance guardrail, health
/// gates. This is what lets the decision trace answer "why did WH_A downsize
/// at hour 412 — and why was nothing else on the table?".
pub(super) struct MaskTrace {
    pub(super) mask: [bool; AgentAction::COUNT],
    /// In the order they were found; an action may have several.
    causes: Vec<MaskCause>,
}

impl MaskTrace {
    /// Starts from the constraint mask, attributing each constraint-masked
    /// action to the offending rules (or inapplicability). `causes` is the
    /// previous tick's list, reused for its allocation.
    fn new(
        constraints: &ConstraintSet,
        config: &WarehouseConfig,
        now: SimTime,
        mut causes: Vec<MaskCause>,
    ) -> Self {
        let mask = constraints.action_mask(config, now);
        causes.clear();
        for action in AgentAction::ALL {
            if mask[action.index()] {
                continue;
            }
            if !action.is_applicable(config) {
                let cause = Cause::Inapplicable;
                causes.push(MaskCause { action, cause });
            }
            for rule in constraints.violation_indices(action, config, now) {
                #[expect(
                    clippy::expect_used,
                    reason = "2^32 rules are hundreds of GB of `Rule`s, never resident"
                )]
                let cause = Cause::Rule(u32::try_from(rule).expect("rule position fits u32"));
                causes.push(MaskCause { action, cause });
            }
        }
        Self { mask, causes }
    }

    /// Masks `action`, recording `guard` if this call is what masked it
    /// (already-masked actions keep their original causes).
    fn disallow(&mut self, action: AgentAction, guard: Guard) {
        let i = action.index();
        if self.mask[i] {
            self.mask[i] = false;
            let cause = Cause::Guard(guard);
            self.causes.push(MaskCause { action, cause });
        }
    }

    fn allows(&self, action: AgentAction) -> bool {
        self.mask[action.index()]
    }
}

/// Output of `decide`: the encoded state and what is on the table.
pub(super) struct Plan {
    state_vec: Vec<f64>,
    pub(super) mask: MaskTrace,
    /// `StaleFallback` only: what the live-signal fallback picked.
    pub(super) fallback: Option<AgentAction>,
}

/// One actuation: a single agent action, or raw commands (multi-knob moves
/// that are not one agent action).
enum Move<'a> {
    Action(AgentAction),
    Commands(&'a [WarehouseCommand]),
}

/// What the tick's single trace record says was chosen, and why.
struct Decision {
    /// `None` on a gated tick: nothing was on the table.
    mask: Option<MaskTrace>,
    chosen: Chosen,
    reason: Reason,
    reward: Option<f64>,
}

impl Decision {
    /// A gated tick: nothing on the table, `chosen` is all that happened.
    fn held(gate: Gate, chosen: AgentAction) -> Self {
        Self {
            mask: None,
            chosen: Chosen::Action(chosen),
            reason: gate.reason(),
            reward: None,
        }
    }
}

impl WarehouseOptimizer {
    /// One real-time step of Algorithm 1 (lines 17–23), gated by health.
    /// Wall time per tick lands in the `keebo.tick.wall_us` histogram.
    pub(super) fn tick(&mut self, sim: &mut Simulator) {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time only feeds the tick-duration histogram, never a decision"
        )]
        let t0 = Instant::now();
        self.effects = TickEffects::default();
        self.run_stages(sim);
        self.forget_read_events();
        tick_wall_histogram().observe(t0.elapsed().as_secs_f64() * 1e6);
    }

    fn run_stages(&mut self, sim: &mut Simulator) {
        let now = sim.now();
        let fetched = self.sense(sim);
        let health = self.assess(sim, now);
        // Periodic retraining (lines 14–16) — never on stale telemetry: a
        // model refreshed on pre-outage data would silently learn that the
        // world stopped.
        if self.ctl.onboarded
            && self.ctl.health.can_train()
            && now.saturating_sub(self.ctl.last_train) >= self.setup.train_interval_ms
        {
            self.retrain(now, self.setup.refresh_episodes, None);
        }
        // Monitoring feedback starts at onboarding: events seen before it
        // are setup, not interference.
        let feedback = self.ctl.onboarded.then(|| self.watch(sim, now, health));
        if fetched {
            self.ctl.events_cursor = now;
        }
        let external_change = feedback.as_ref().is_some_and(|c| c.rts.external_change);
        let gate = Gate::of(
            self.ctl.onboarded,
            self.is_paused(now),
            external_change,
            health,
        );
        let Some(mut ctx) = feedback else {
            return; // observation mode: learn the workload before acting
        };

        // Re-drive any drift between intent and observation (failed,
        // dropped, or delayed ALTERs). This runs in every health state —
        // when frozen it is the *only* thing that runs, probing the control
        // plane under its own backoff until it heals.
        if gate.degraded() || gate == Gate::Optimize {
            self.ctl
                .reconciler
                .reconcile(sim, &mut self.actuator, self.wh);
        }
        if gate != Gate::Optimize {
            // No reward is attributed across a tick the policy sat out.
            self.ctl.reward_basis.action = None;
        }
        if gate.degraded() {
            self.ctl.healthy_streak = 0;
        }
        let decision = match gate {
            Gate::Observing => return,
            Gate::ExternalChange => self.step_aside(sim, &mut ctx),
            Gate::Paused | Gate::Frozen | Gate::MidRepair => {
                Decision::held(gate, AgentAction::NoOp)
            }
            Gate::StaleFallback | Gate::Optimize => {
                if gate == Gate::Optimize {
                    self.apply_pending_auto_suspend(sim, &ctx);
                }
                ctx.desc = sim.account().describe(self.wh);
                ctx.cache_warm = sim.account().warehouse(self.wh).cache_warm_fraction();
                let plan = self.decide(&ctx, gate);
                let reward = match gate {
                    Gate::Optimize => self.reward(sim, &ctx),
                    _ => None, // stale telemetry: no reward
                };
                self.enact(sim, &ctx, plan, reward)
            }
        };
        self.record_decision(&ctx, decision);
    }

    /// Drops the warehouse events behind the monitoring cursor: `watch` is
    /// their only reader and never looks back past it. Runs after every
    /// live and replayed tick and after a snapshot's redelivery, so the
    /// store is always the delivered stream from the journaled cursor on —
    /// the same in a restored optimizer as in the one that crashed.
    pub(super) fn forget_read_events(&mut self) {
        self.store
            .prune_events_before(&self.name, self.ctl.events_cursor);
    }

    /// Stage 1 — sense: one telemetry pull; returns whether the metadata
    /// service answered.
    pub(super) fn sense(&mut self, sim: &mut Simulator) -> bool {
        let now = sim.now();
        let fault = sim.poll_telemetry_fault();
        let fetched = self
            .ctl
            .fetcher
            .fetch(sim.account_mut(), &mut self.store, now, fault)
            .is_ok();
        self.effects.fetched = fetched;
        fetched
    }

    /// Stage 2 — assess: health from the live signals at `now`
    /// (pre-reconcile: this tick's repair outcome is seen next tick).
    fn assess(&mut self, sim: &Simulator, now: SimTime) -> HealthState {
        let config_drift = self.ctl.reconciler.desired().is_some_and(|want| {
            !sim.account()
                .describe(self.wh)
                .config
                .commands_to(want)
                .is_empty()
        });
        self.ctl.health.evaluate(HealthSignals {
            telemetry_staleness_ms: self.ctl.fetcher.staleness_ms(now),
            consecutive_actuation_failures: self.ctl.reconciler.consecutive_failures(),
            config_drift,
        })
    }

    /// Stage 3 — retrain (live and replay): one training pass over the
    /// accumulated telemetry, recorded for the WAL. Replay passes the
    /// originally drawn episode seed instead of advancing the learning RNG.
    pub(super) fn retrain(&mut self, now: SimTime, episodes: usize, replay_seed: Option<u64>) {
        let seed = self.train(now, episodes, replay_seed);
        self.effects.retrain = Some(RetrainRecord { episodes, seed });
    }

    /// Stage 4 (input) — the monitor's view of the last interval, which the
    /// gate and every later stage read.
    fn watch(&mut self, sim: &Simulator, now: SimTime, health: HealthState) -> TickCtx {
        let interval = self.setup.realtime_interval_ms;
        let desc = sim.account().describe(self.wh);
        let window_records: Vec<&QueryRecord> = self
            .store
            .queries_in(&self.name, now.saturating_sub(interval), now)
            .iter()
            .collect();
        // External-change detection is event-based and outage-tolerant: the
        // cursor only advances on successful fetches, so an admin's ALTER
        // issued during a telemetry outage is still caught when the events
        // are finally delivered.
        let window_events: Vec<&WarehouseEventRecord> =
            self.store
                .events_in(&self.name, self.ctl.events_cursor, now);
        let warehouse = sim.account().warehouse(self.wh);
        let rts = self.monitor.assess(
            self.ctl.baseline_p99_ms,
            &window_records,
            &window_events,
            now,
            interval,
            desc.queued_queries,
            warehouse.longest_running_ms(now),
            self.setup.slider,
        );
        self.effects.arrivals = self.monitor.newest();
        TickCtx {
            now,
            health,
            desc,
            cache_warm: warehouse.cache_warm_fraction(),
            rts,
        }
    }

    /// `ExternalChange`: external changes pause optimization (§4.4). The
    /// external config is the new truth: revert our own last action, step
    /// aside, and drop our intent so the reconciler never fights the admin.
    fn step_aside(&mut self, sim: &mut Simulator, ctx: &mut TickCtx) -> Decision {
        let mut chosen = AgentAction::NoOp;
        if !self.is_paused(ctx.now) {
            let revert = self
                .ctl
                .last_action
                .take()
                .and_then(AgentAction::inverse)
                .filter(|inv| inv.is_applicable(&ctx.desc.config));
            if let Some(inv) = revert {
                self.act(
                    sim,
                    &ctx.desc.config,
                    Move::Action(inv),
                    Reason::ExternalRevert,
                );
                chosen = inv;
            }
        }
        self.ctl.paused_until = Some(ctx.now + EXTERNAL_PAUSE_MS);
        self.ctl.reconciler.clear();
        ctx.desc = sim.account().describe(self.wh);
        self.ctl.expected_config = ctx.desc.config.clone();
        Decision::held(Gate::ExternalChange, chosen)
    }

    /// Applies the analytically chosen auto-suspend (once per retrain),
    /// respecting constraints by checking the equivalent knob move. Healthy
    /// ticks only: the target stays pending through degradation rather than
    /// racing a mid-repair reconciler.
    fn apply_pending_auto_suspend(&mut self, sim: &mut Simulator, ctx: &TickCtx) {
        let current = &ctx.desc.config;
        let Some(target) = self.ctl.pending_auto_suspend.take() else {
            return;
        };
        if target == current.auto_suspend_ms {
            return;
        }
        let probe = if target < current.auto_suspend_ms {
            AgentAction::AutoSuspendDown
        } else {
            AgentAction::AutoSuspendUp
        };
        if self.setup.constraints.allows(probe, current, ctx.now) {
            let cmds = [WarehouseCommand::SetAutoSuspend { ms: target }];
            let reason = Reason::AutoSuspendOptimizer;
            self.act(sim, current, Move::Commands(&cmds), reason);
        }
    }

    /// Stage 5 — decide: encodes the state and builds the action mask, with
    /// the reason each action is off the table. Reads only the context,
    /// never the simulator.
    pub(super) fn decide(&mut self, ctx: &TickCtx, gate: Gate) -> Plan {
        let (desc, rts) = (&ctx.desc, &ctx.rts);
        let state = AgentState {
            now: ctx.now,
            window: rts.window.clone(),
            config: desc.config.clone(),
            queue_depth: desc.queued_queries,
            cache_warm: ctx.cache_warm,
            suspended: desc.is_suspended,
            slider: self.setup.slider,
        };
        let buffer = std::mem::take(&mut self.cause_buffer);
        let mut mask = MaskTrace::new(&self.setup.constraints, &desc.config, ctx.now, buffer);

        // Auto-suspend is owned by the analytic optimizer; the policy keeps
        // size and parallelism (and SuspendNow for mid-interval idleness).
        mask.disallow(AgentAction::AutoSuspendUp, Guard::OwnerAutoSuspend);
        mask.disallow(AgentAction::AutoSuspendDown, Guard::OwnerAutoSuspend);

        let mut fallback = None;
        if gate == Gate::StaleFallback {
            // Stale telemetry: windowed features describe the past, not the
            // present. Hold the last-known-good policy (no retrain, no
            // reward) and decide from live control-plane signals only —
            // capacity may be added to protect performance, never removed.
            for a in [
                AgentAction::SizeDown,
                AgentAction::ClustersDown,
                AgentAction::SuspendNow,
            ] {
                mask.disallow(a, Guard::StaleTelemetry);
            }
            fallback = Some(stale_fallback_action(desc.queued_queries, &mask.mask));
        } else {
            self.guard_performance(ctx, &mut mask);
        }
        Plan {
            state_vec: state.to_vec(),
            mask,
            fallback,
        }
    }

    /// The performance and cost guardrails of the mask.
    fn guard_performance(&mut self, ctx: &TickCtx, mask: &mut MaskTrace) {
        let (desc, rts) = (&ctx.desc, &ctx.rts);
        // C4 guardrail: while the warehouse is already behind on
        // performance, capacity-reducing moves are off the table — the
        // model chooses among NoOp and capacity-increasing actions only.
        // The healthy threshold matches the back-off threshold so there is
        // no gray zone where the policy can ratchet capacity up over
        // routine cold-start blips that monitoring would not act on.
        // The queue threshold sits above the warehouse resume delay: a 2 s
        // auto-resume wait is the price of suspension, not queue pressure.
        let perf_healthy = rts.latency_ratio <= self.setup.slider.backoff_latency_ratio()
            && rts.window.mean_queue_ms < 5_000.0
            && rts.queue_depth < 8;
        if !rts.should_back_off {
            // Consecutive healthy ticks the policy owned (feeds capacity
            // decay; a back-off tick neither extends nor breaks the run).
            self.ctl.healthy_streak = if perf_healthy {
                self.ctl.healthy_streak + 1
            } else {
                0
            };
        }
        if !perf_healthy {
            for a in [
                AgentAction::SizeDown,
                AgentAction::ClustersDown,
                AgentAction::AutoSuspendDown,
                AgentAction::SuspendNow,
            ] {
                mask.disallow(a, Guard::PerfUnhealthy);
            }
            return;
        }
        self.ctl.last_good_config = Some(desc.config.clone());
        // Downsizing only pays while queries actually run (a suspended
        // warehouse bills nothing at any size), and without live load
        // there is no evidence the smaller size performs acceptably —
        // so resizing down requires observed work in the window.
        let has_load_evidence = rts.window.mean_concurrency > 0.0 && rts.window.arrivals > 0;
        let above_original = desc.config.size > self.original_config.size;
        if (!has_load_evidence || desc.is_suspended) && !above_original {
            // Stepping back down toward the customer's own size is
            // always safe; going *below* it needs evidence.
            mask.disallow(AgentAction::SizeDown, Guard::NoLoadEvidence);
        }
        // Analytic size floor from the learned latency scaler (§5.2):
        // each size step down multiplies latency by 2^(-slope); the
        // slider's tolerated p99 inflation bounds how many steps below
        // the original size can ever be acceptable.
        let slope = (-self.cost_model.latency.global_slope()).max(0.1);
        let allowed = self.setup.slider.backoff_latency_ratio();
        let steps_below = (allowed.log2() / slope).floor().max(0.0) as usize;
        let floor_idx = self
            .original_config
            .size
            .index()
            .saturating_sub(steps_below);
        if desc.config.size.index() <= floor_idx {
            mask.disallow(AgentAction::SizeDown, Guard::SliderFloor);
        }
        // Cost guardrail (the flip side of C4): while performance is
        // fine, never provision beyond the customer's own original
        // capacity — upside headroom is the monitoring back-off's job,
        // reserved for actual pressure.
        let orig = &self.original_config;
        if desc.config.size >= orig.size {
            mask.disallow(AgentAction::SizeUp, Guard::CostGuardrail);
        }
        if desc.config.max_clusters >= orig.max_clusters {
            mask.disallow(AgentAction::ClustersUp, Guard::CostGuardrail);
        }
        if desc.config.auto_suspend_ms >= orig.auto_suspend_ms {
            mask.disallow(AgentAction::AutoSuspendUp, Guard::CostGuardrail);
        }
    }

    /// Stage 6 — reward: what the previous policy action earned, from what
    /// the interval cost and how it performed. The decision trace records
    /// it, and nothing learns from it: the DQN trains only in `retrain`'s
    /// offline episodes, on the transitions they simulate (DESIGN.md,
    /// decision 10). Returns the reward, if a policy action was pending one.
    fn reward(&mut self, sim: &Simulator, ctx: &TickCtx) -> Option<f64> {
        let (rts, slider) = (&ctx.rts, self.setup.slider);
        let credits_now = sim.account().accrued_credits(self.wh, ctx.now);
        let dropped_now = sim.account().warehouse(self.wh).dropped_queries();
        let basis = &mut self.ctl.reward_basis;
        let reward = basis.action.take().map(|action| {
            let perf = PerfSignals {
                mean_queue_s: rts.window.mean_queue_ms / 1000.0,
                latency_ratio: rts.latency_ratio,
                dropped_queries: dropped_now - basis.dropped,
            };
            agent::action_reward(action.index(), credits_now - basis.credits, &perf, slider)
        });
        basis.credits = credits_now;
        basis.dropped = dropped_now;
        reward
    }

    /// Stage 7 — act (lines 18–20): picks the action — the stale-telemetry
    /// fallback's, a back-off override, or the policy's — and applies it.
    fn enact(
        &mut self,
        sim: &mut Simulator,
        ctx: &TickCtx,
        plan: Plan,
        reward: Option<f64>,
    ) -> Decision {
        let current = &ctx.desc.config;
        let (chosen, reason) = if let Some(action) = plan.fallback {
            let reason = Gate::StaleFallback.reason();
            if action != AgentAction::NoOp {
                self.act(sim, current, Move::Action(action), reason);
            }
            (Chosen::Action(action), reason)
        } else if ctx.rts.should_back_off {
            self.back_off(sim, ctx, &plan.mask)
        } else {
            self.follow_policy(sim, current, &plan.state_vec, &plan.mask)
        };
        Decision {
            mask: Some(plan.mask),
            chosen,
            reason,
            reward,
        }
    }

    /// Back-off overrides the policy. §4.3: roll back to the last settings
    /// that performed well. If no known-good config has more capacity than
    /// the current one, fall back to the customer's original configuration
    /// — the one state guaranteed not to be a Keebo-induced regression.
    fn back_off(
        &mut self,
        sim: &mut Simulator,
        ctx: &TickCtx,
        mask: &MaskTrace,
    ) -> (Chosen, Reason) {
        let (current, rts) = (&ctx.desc.config, &ctx.rts);
        let has_more_capacity =
            |c: &WarehouseConfig| c.size > current.size || c.max_clusters > current.max_clusters;
        let above_original = current.size > self.original_config.size
            || current.max_clusters > self.original_config.max_clusters;
        let queue_pressure = rts.queue_depth >= 8 || rts.window.mean_queue_ms >= 5_000.0;
        let rollback = if above_original && !queue_pressure {
            // Already beyond the customer's own capacity and nothing is
            // queued: more capacity cannot be the answer. Return to the
            // original posture instead of escalating further.
            Some(self.original_config.clone())
        } else {
            self.ctl
                .last_good_config
                .as_ref()
                .filter(|good| has_more_capacity(good))
                .cloned()
                .or_else(|| {
                    Some(self.original_config.clone()).filter(|orig| has_more_capacity(orig))
                })
        };
        let (chosen, reason) = match rollback {
            Some(good) => {
                let mut cmds = Vec::new();
                if good.size != current.size {
                    cmds.push(WarehouseCommand::SetSize(good.size));
                }
                if good.max_clusters != current.max_clusters
                    || good.min_clusters != current.min_clusters
                {
                    cmds.push(WarehouseCommand::SetClusterRange {
                        min: good.min_clusters,
                        max: good.max_clusters,
                    });
                }
                // Auto-suspend is deliberately not rolled back: it is
                // not capacity, and the cold-cache cost it implies is a
                // one-shot the policy re-weighs on its own.
                let reason = Reason::BackoffRollback;
                self.act(sim, current, Move::Commands(&cmds), reason);
                (Chosen::Rollback(good.size), reason)
            }
            None => {
                let action = backoff_action(rts, &mask.mask, self.ctl.last_action);
                let reason = Reason::Backoff;
                self.act(sim, current, Move::Action(action), reason);
                (Chosen::Action(action), reason)
            }
        };
        // Back-off is a monitoring override, not a policy choice; no
        // reward is attributed to the model for it.
        self.ctl.last_action = None;
        self.ctl.reward_basis.action = None;
        self.ctl.reward_basis.credits = sim.account().accrued_credits(self.wh, ctx.now);
        (chosen, reason)
    }

    /// The policy's turn — unless sustained health calls for capacity
    /// decay: spike headroom granted by back-off drifts back to the
    /// customer's original capacity after an hour of sustained health,
    /// instead of waiting for the policy to rediscover it.
    fn follow_policy(
        &mut self,
        sim: &mut Simulator,
        current: &WarehouseConfig,
        state_vec: &[f64],
        mask: &MaskTrace,
    ) -> (Chosen, Reason) {
        let streak_needed = (HOUR_MS / self.setup.realtime_interval_ms).max(1) as u32;
        let decay = self.ctl.healthy_streak >= streak_needed;
        let (orig, policy) = (&self.original_config, Gate::Optimize.reason());
        let (action, reason) =
            if decay && current.size > orig.size && mask.allows(AgentAction::SizeDown) {
                (AgentAction::SizeDown, Reason::CapacityDecay)
            } else if decay
                && current.max_clusters > orig.max_clusters
                && mask.allows(AgentAction::ClustersDown)
            {
                (AgentAction::ClustersDown, Reason::CapacityDecay)
            } else {
                (self.agent.greedy_action(state_vec, &mask.mask), policy)
            };
        // The action log files decay under the policy it pre-empts.
        self.act(sim, current, Move::Action(action), policy);
        if action != AgentAction::NoOp {
            self.ctl.last_action = Some(action);
        }
        self.ctl.reward_basis.action = Some(action);
        (Chosen::Action(action), reason)
    }

    /// The one actuation path: apply the move from `current`, record the
    /// intent with the reconciler (so a dropped or delayed ALTER is
    /// re-driven), and re-read what the control plane now reports.
    fn act(&mut self, sim: &mut Simulator, current: &WarehouseConfig, mv: Move, reason: Reason) {
        let intent = match mv {
            Move::Action(action) => {
                self.actuator.apply(sim, self.wh, current, action, reason);
                action.target_config(current)
            }
            Move::Commands(cmds) => {
                self.actuator.apply_commands(sim, self.wh, cmds, reason);
                current.after(cmds)
            }
        };
        self.ctl.reconciler.set_desired(intent);
        self.ctl.expected_config = sim.account().describe(self.wh).config;
    }

    /// Appends the tick's decision record. Pure bookkeeping: copies values
    /// the stages already computed and never feeds back.
    fn record_decision(&mut self, ctx: &TickCtx, decision: Decision) {
        let (config, rts) = (&ctx.desc.config, &ctx.rts);
        let record = Record {
            t_ms: ctx.now,
            health: ctx.health,
            size: config.size,
            min_clusters: config.min_clusters,
            max_clusters: config.max_clusters,
            auto_suspend_ms: config.auto_suspend_ms,
            features: TraceFeatures {
                arrival_rate_per_hour: rts.window.arrival_rate_per_hour,
                mean_latency_ms: rts.window.mean_latency_ms,
                p99_latency_ms: rts.window.p99_latency_ms,
                mean_queue_ms: rts.window.mean_queue_ms,
                mean_concurrency: rts.window.mean_concurrency,
                queue_depth: rts.queue_depth,
                load_zscore: rts.load_zscore,
                latency_ratio: rts.latency_ratio,
            },
            mask: decision.mask.as_ref().map(|m| m.mask),
            chosen: decision.chosen,
            reason: decision.reason,
            reward: decision.reward,
        };
        match decision.mask {
            Some(mask) => {
                self.ring.push(record, &mask.causes);
                self.cause_buffer = mask.causes;
            }
            None => self.ring.push(record, &[]),
        }
    }
}

/// Queue depth at which the stale-telemetry fallback adds capacity.
const STALE_FALLBACK_QUEUE_DEPTH: usize = 4;

/// The stale-telemetry fallback. Windowed features describe the past while
/// the feed is down, so it reads only the live queue depth from `DESCRIBE`
/// (fresh during a metadata outage): under queue pressure it adds capacity,
/// clusters first, and otherwise holds. It never removes capacity — cost
/// optimization waits until the optimizer can see again.
fn stale_fallback_action(queue_depth: usize, mask: &[bool; AgentAction::COUNT]) -> AgentAction {
    if queue_depth < STALE_FALLBACK_QUEUE_DEPTH {
        return AgentAction::NoOp;
    }
    [AgentAction::ClustersUp, AgentAction::SizeUp]
        .into_iter()
        .find(|a| mask[a.index()])
        .unwrap_or(AgentAction::NoOp)
}

/// The conservative action monitoring substitutes when backing off: undo the
/// last cost-cutting move if it has an inverse; otherwise add capacity
/// (clusters first for queueing, then size).
fn backoff_action(
    rts: &RealTimeState,
    mask: &[bool; AgentAction::COUNT],
    last_action: Option<AgentAction>,
) -> AgentAction {
    if let Some(inv) = last_action.and_then(AgentAction::inverse) {
        if mask[inv.index()] && is_capacity_increasing(inv) {
            return inv;
        }
    }
    let preferences = if rts.queue_depth > 0 || rts.window.mean_queue_ms > 0.0 {
        [
            AgentAction::ClustersUp,
            AgentAction::SizeUp,
            AgentAction::AutoSuspendUp,
        ]
    } else {
        [
            AgentAction::SizeUp,
            AgentAction::ClustersUp,
            AgentAction::AutoSuspendUp,
        ]
    };
    preferences
        .into_iter()
        .find(|a| mask[a.index()])
        .unwrap_or(AgentAction::NoOp)
}

fn is_capacity_increasing(a: AgentAction) -> bool {
    matches!(
        a,
        AgentAction::SizeUp | AgentAction::ClustersUp | AgentAction::AutoSuspendUp
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::KwoSetup;
    use agent::{Rule, RuleEffect, TimeWindow};
    use cdw_sim::{Account, WarehouseSize, MINUTE_MS};
    use telemetry::WindowFeatures;

    #[test]
    fn gate_follows_the_precedence_table() {
        use DegradeReason::*;
        use Gate::*;
        let healths = [
            HealthState::Healthy,
            HealthState::Degraded(StaleTelemetry),
            HealthState::Degraded(ActuationFailures),
            HealthState::Degraded(ConfigDrift),
            HealthState::Frozen,
        ];
        // (onboarded, external change, paused) → gate per health column.
        let by_health = [Optimize, StaleFallback, MidRepair, MidRepair, Frozen];
        let table = [
            ((false, false, false), [Observing; 5]),
            ((false, false, true), [Observing; 5]),
            ((false, true, false), [Observing; 5]),
            ((false, true, true), [Observing; 5]),
            ((true, false, false), by_health),
            // A pause outranks health, frozen included.
            ((true, false, true), [Paused; 5]),
            ((true, true, false), [ExternalChange; 5]),
            // External change while already paused: the pause restarts.
            ((true, true, true), [ExternalChange; 5]),
        ];
        for ((onboarded, external, paused), row) in table {
            for (health, want) in healths.into_iter().zip(row) {
                assert_eq!(
                    Gate::of(onboarded, paused, external, health),
                    want,
                    "onboarded={onboarded} external={external} paused={paused} {health:?}"
                );
            }
        }
        let reasons = [
            (ExternalChange, "paused:external-change"),
            (Paused, "paused"),
            (Frozen, "frozen"),
            (MidRepair, "degraded:mid-repair"),
            (StaleFallback, "degraded-fallback"),
            (Optimize, "policy"),
        ];
        for (gate, reason) in reasons {
            assert_eq!(gate.reason().as_str(), reason);
        }
    }

    #[test]
    fn stale_fallback_noops_without_queue_pressure() {
        let action = stale_fallback_action(0, &[true; AgentAction::COUNT]);
        assert_eq!(action, AgentAction::NoOp);
    }

    #[test]
    fn stale_fallback_adds_capacity_under_pressure() {
        let mask = [true; AgentAction::COUNT];
        assert_eq!(stale_fallback_action(6, &mask), AgentAction::ClustersUp);
        // Clusters saturated → escalate to a resize.
        let mut no_clusters = mask;
        no_clusters[AgentAction::ClustersUp.index()] = false;
        assert_eq!(stale_fallback_action(6, &no_clusters), AgentAction::SizeUp);
        // Nothing allowed → hold.
        let mut neither = no_clusters;
        neither[AgentAction::SizeUp.index()] = false;
        assert_eq!(stale_fallback_action(6, &neither), AgentAction::NoOp);
    }

    /// An optimizer for a Large 1–3-cluster warehouse and a hand-built
    /// context for it at its original configuration, with live load and
    /// healthy latency — no simulator behind either.
    fn optimizer_and_ctx() -> (WarehouseOptimizer, TickCtx) {
        let original = WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(600)
            .with_clusters(1, 3);
        let wh = Account::new().create_warehouse("WH", original.clone());
        let setup = KwoSetup::default();
        let o = WarehouseOptimizer::new(wh, "WH".into(), original.clone(), setup, 7).unwrap();
        let now = 30 * HOUR_MS;
        let ctx = TickCtx {
            now,
            health: HealthState::Healthy,
            desc: WarehouseDescription {
                name: "WH".into(),
                config: original,
                is_suspended: false,
                running_clusters: 1,
                queued_queries: 0,
                running_queries: 1,
            },
            cache_warm: 0.5,
            rts: RealTimeState {
                window: WindowFeatures {
                    arrivals: 12,
                    mean_concurrency: 0.8,
                    ..WindowFeatures::empty(now - 10 * MINUTE_MS, 10 * MINUTE_MS)
                },
                queue_depth: 0,
                load_zscore: 0.0,
                latency_ratio: 1.0,
                external_change: false,
                should_back_off: false,
            },
        };
        (o, ctx)
    }

    fn causes(plan: &Plan, action: AgentAction) -> Vec<Cause> {
        assert!(!plan.mask.allows(action), "{action:?} should be masked");
        let own = plan.mask.causes.iter().filter(|c| c.action == action);
        own.map(|c| c.cause).collect()
    }

    #[test]
    fn decide_attributes_every_mask_to_its_cause() {
        use AgentAction::*;
        // Healthy at the original size: the analytic optimizer owns
        // auto-suspend and the cost guardrail holds capacity at the original.
        let (mut o, ctx) = optimizer_and_ctx();
        let plan = o.decide(&ctx, Gate::Optimize);
        for a in [AutoSuspendUp, AutoSuspendDown] {
            assert_eq!(causes(&plan, a), [Cause::Guard(Guard::OwnerAutoSuspend)]);
        }
        for a in [SizeUp, ClustersUp] {
            assert_eq!(causes(&plan, a), [Cause::Guard(Guard::CostGuardrail)]);
        }
        // The untrained latency model tolerates no step below the original.
        assert_eq!(causes(&plan, SizeDown), [Cause::Guard(Guard::SliderFloor)]);
        assert!(plan.mask.allows(ClustersDown) && plan.fallback.is_none());
        // Allowed actions have no cause; every cause belongs to a masked one.
        assert_eq!(plan.mask.causes.len(), 5);
        assert_eq!(o.ctl.last_good_config.as_ref(), Some(&ctx.desc.config));
        assert_eq!(o.ctl.healthy_streak, 1);

        // No arrivals in the window: no evidence a smaller size would do.
        let (mut o, mut idle) = optimizer_and_ctx();
        idle.rts.window.arrivals = 0;
        assert_eq!(
            causes(&o.decide(&idle, Gate::Optimize), SizeDown),
            [Cause::Guard(Guard::NoLoadEvidence)]
        );

        // Behind on performance: nothing that removes capacity (C4).
        let (mut o, mut slow) = optimizer_and_ctx();
        slow.rts.latency_ratio = 9.0;
        let plan = o.decide(&slow, Gate::Optimize);
        for a in [SizeDown, ClustersDown, SuspendNow] {
            assert_eq!(causes(&plan, a), [Cause::Guard(Guard::PerfUnhealthy)]);
        }
        assert!(plan.mask.allows(SizeUp), "capacity may still be added");
        assert_eq!(o.ctl.last_good_config, None);
        assert_eq!(o.ctl.healthy_streak, 0);

        // Stale telemetry: capacity may be added, never removed, and the
        // live-signal fallback has already picked.
        let (mut o, mut stale) = optimizer_and_ctx();
        stale.health = HealthState::Degraded(DegradeReason::StaleTelemetry);
        let plan = o.decide(&stale, Gate::StaleFallback);
        for a in [SizeDown, ClustersDown, SuspendNow] {
            assert_eq!(causes(&plan, a), [Cause::Guard(Guard::StaleTelemetry)]);
        }
        assert!(plan.fallback.is_some());

        // The customer's rules and inapplicability come first: an action
        // they mask keeps those causes, all of them, and gains no guard's.
        let (mut o, mut ruled) = optimizer_and_ctx();
        for (name, effect) in [
            ("no-naps", RuleEffect::NoSuspend),
            ("keep-big", RuleEffect::NoDownsize),
            ("floor", RuleEffect::MinSize(WarehouseSize::Large)),
        ] {
            o.add_constraint(Rule::new(name, TimeWindow::always(), effect));
        }
        let plan = o.decide(&ruled, Gate::Optimize);
        assert_eq!(causes(&plan, SizeDown), [Cause::Rule(1), Cause::Rule(2)]);
        for a in [AutoSuspendDown, SuspendNow] {
            assert_eq!(causes(&plan, a), [Cause::Rule(0)]);
        }
        ruled.desc.config.size = WarehouseSize::XSmall;
        let plan = o.decide(&ruled, Gate::Optimize);
        assert_eq!(
            causes(&plan, SizeDown),
            [Cause::Inapplicable, Cause::Rule(2)]
        );
    }

    #[test]
    fn a_later_rule_renames_no_recorded_cause() {
        use AgentAction::SizeDown;
        let rule = |name: &str| Rule::new(name, TimeWindow::always(), RuleEffect::NoDownsize);
        let (mut o, mut ctx) = optimizer_and_ctx();
        let tick = |o: &mut WarehouseOptimizer, ctx: &TickCtx| {
            let plan = o.decide(ctx, Gate::Optimize);
            let decision = Decision {
                mask: Some(plan.mask),
                chosen: Chosen::Action(AgentAction::NoOp),
                reason: Gate::Optimize.reason(),
                reward: None,
            };
            o.record_decision(ctx, decision);
        };
        o.add_constraint(rule("keep-big"));
        tick(&mut o, &ctx);
        let before = o.trace();
        o.add_constraint(rule("month-end"));
        ctx.now += HOUR_MS;
        tick(&mut o, &ctx);

        let after = o.trace();
        assert_eq!((o.trace_len(), after.len(), after.dropped()), (2, 2, 0));
        let events: Vec<_> = after.events().collect();
        assert_eq!(
            Some(events[0]),
            before.events().next(),
            "the first event reads as it did"
        );
        let size_down = |e: &keebo_obs::DecisionEvent| e.mask[SizeDown.index()].reasons.clone();
        assert_eq!(size_down(events[0]), ["constraint:keep-big"]);
        assert_eq!(
            size_down(events[1]),
            ["constraint:keep-big", "constraint:month-end"]
        );
        assert_eq!((events[0].hour, events[1].hour), (30, 31));
        assert!(events.iter().all(|e| e.warehouse == "WH"));
    }
}
