//! The discrete-event engine.
//!
//! The simulator owns an [`Account`] and a time-ordered event queue. Callers
//! (workload traces, the KWO orchestration loop) submit query arrivals and
//! `ALTER WAREHOUSE` commands, then advance virtual time with
//! [`Simulator::run_until`]. Ties are broken by insertion sequence number, so
//! runs are fully deterministic.

use crate::account::{Account, WarehouseId};
use crate::api::{AlterError, WarehouseCommand};
use crate::faults::{AlterFault, FaultInjector, FaultPlan, FaultStats, TelemetryFault};
use crate::query::QuerySpec;
use crate::records::ActionSource;
use crate::time::SimTime;
use crate::warehouse::WhEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// An event addressed to one warehouse.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Arrival {
        wh: WarehouseId,
        spec: QuerySpec,
    },
    /// A query arrival referencing a shared trace arena instead of carrying
    /// the spec inline: `traces[trace][idx]`. Keeps heap nodes small and
    /// lets the fleet share one immutable trace across shards without
    /// deep-cloning every [`QuerySpec`].
    TraceArrival {
        wh: WarehouseId,
        trace: u32,
        idx: u32,
    },
    Warehouse {
        wh: WarehouseId,
        ev: WhEvent,
    },
    /// An `ALTER` the fault injector acknowledged but delayed; applied when
    /// this event fires. The original caller already saw `Ok`, so a failure
    /// here only surfaces in [`FaultStats::deferred_apply_errors`].
    Deferred {
        wh: WarehouseId,
        cmd: WarehouseCommand,
        source: ActionSource,
    },
}

// QuerySpec contains f64s, so Event can't derive Ord; the heap orders only
// by (time, seq) and never compares Event payloads.
#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// An observer invoked after every processed event with the account state
/// and the clock at that instant. Installed via
/// [`Simulator::set_post_event_hook`]; the verification layer uses it to run
/// invariant checks at every event boundary without the simulator depending
/// on the checker.
pub struct PostEventHook(HookFn);

/// `Send` so a simulator can migrate between worker threads (the serving
/// gateway parks shards between control ticks and any pool worker may pick
/// one up); hooks observing shared state should capture `Arc`-based
/// handles.
type HookFn = Box<dyn FnMut(&Account, SimTime) + Send>;

impl fmt::Debug for PostEventHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PostEventHook")
    }
}

/// Discrete-event simulator over one account.
#[derive(Debug)]
pub struct Simulator {
    account: Account,
    clock: SimTime,
    queue: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    processed_events: u64,
    injector: FaultInjector,
    post_event_hook: Option<PostEventHook>,
    /// Immutable traces referenced by [`Event::TraceArrival`] events.
    traces: Vec<Arc<[QuerySpec]>>,
    /// Reusable scratch buffer for the per-event effect schedule: the event
    /// hot path drains it back into the heap instead of allocating a fresh
    /// `Vec` per event.
    scratch: Vec<(SimTime, WhEvent)>,
}

impl Simulator {
    /// Wraps an account in a simulator starting at t = 0, with no faults.
    pub fn new(account: Account) -> Self {
        Self::with_faults(account, FaultPlan::none(), 0)
    }

    /// Wraps an account in a simulator with a fault schedule. The injector
    /// has its own RNG seeded from `fault_seed`, so the same
    /// `(workload, fault_seed, plan)` reproduces the same run and an empty
    /// plan is bit-identical to [`Simulator::new`].
    pub fn with_faults(account: Account, plan: FaultPlan, fault_seed: u64) -> Self {
        Self {
            account,
            clock: 0,
            queue: BinaryHeap::new(),
            next_seq: 0,
            processed_events: 0,
            injector: FaultInjector::new(plan, fault_seed),
            post_event_hook: None,
            traces: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Installs an observer called after every processed event (any previous
    /// hook is replaced). The hook sees the account in its post-event state
    /// and the event's timestamp — the clock may still advance to the
    /// `run_until` horizon afterwards without a further call.
    pub fn set_post_event_hook(&mut self, hook: impl FnMut(&Account, SimTime) + Send + 'static) {
        self.post_event_hook = Some(PostEventHook(Box::new(hook)));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events processed (diagnostics).
    pub fn processed_events(&self) -> u64 {
        self.processed_events
    }

    /// Read access to the account (telemetry, billing, descriptions).
    pub fn account(&self) -> &Account {
        &self.account
    }

    /// Mutable access for overhead charging; configuration changes must go
    /// through [`Simulator::alter_warehouse`] so their effects are scheduled.
    pub fn account_mut(&mut self) -> &mut Account {
        &mut self.account
    }

    /// Consumes the simulator, returning the account.
    pub fn into_account(self) -> Account {
        self.account
    }

    fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Schedules a warehouse event, letting the injector stretch resumes
    /// (a slow-resume fault adds delay to the `ResumeDone` completion).
    fn push_wh(&mut self, wh: WarehouseId, at: SimTime, ev: WhEvent) {
        let at = if matches!(ev, WhEvent::ResumeDone { .. }) {
            at + self.injector.on_resume(self.clock)
        } else {
            at
        };
        self.push(at, Event::Warehouse { wh, ev });
    }

    /// Counters of faults the injector has realized so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.injector.plan()
    }

    /// Asks the injector whether a telemetry fetch attempted *now* is
    /// faulted. The telemetry layer calls this once per fetch attempt;
    /// with an empty plan it performs no RNG draws and returns
    /// [`TelemetryFault::None`].
    pub fn poll_telemetry_fault(&mut self) -> TelemetryFault {
        self.injector.on_telemetry_fetch(self.clock)
    }

    /// Schedules a query arrival at `spec.arrival` (which must not be in the
    /// simulated past).
    ///
    /// # Panics
    /// Panics if the arrival time is before the current clock.
    pub fn submit_query(&mut self, wh: WarehouseId, spec: QuerySpec) {
        assert!(
            spec.arrival >= self.clock,
            "query {} arrival {} is in the past (now {})",
            spec.id,
            spec.arrival,
            self.clock
        );
        self.push(spec.arrival, Event::Arrival { wh, spec });
    }

    /// Schedules a whole trace for one warehouse from a *shared* immutable
    /// buffer. The specs are never cloned into the event heap: each arrival
    /// event carries only `(trace, index)` into an arena slot holding the
    /// `Arc`, so many shards can replay the same trace with one allocation
    /// fleet-wide. Event ordering (arrival time, then submission sequence)
    /// is identical to feeding the same specs one by one through
    /// [`Simulator::submit_query`], so results are bit-identical.
    ///
    /// # Panics
    /// Panics if any arrival time is in the simulated past, like
    /// [`Simulator::submit_query`].
    pub fn submit_trace_shared(&mut self, wh: WarehouseId, trace: Arc<[QuerySpec]>) {
        assert!(
            self.traces.len() < u32::MAX as usize && trace.len() <= u32::MAX as usize,
            "trace arena overflow"
        );
        let slot = self.traces.len() as u32;
        self.queue.reserve(trace.len());
        self.account.reserve_query_records(trace.len());
        for (idx, spec) in trace.iter().enumerate() {
            assert!(
                spec.arrival >= self.clock,
                "query {} arrival {} is in the past (now {})",
                spec.id,
                spec.arrival,
                self.clock
            );
            self.push(
                spec.arrival,
                Event::TraceArrival {
                    wh,
                    trace: slot,
                    idx: idx as u32,
                },
            );
        }
        self.traces.push(trace);
    }

    /// Applies an `ALTER WAREHOUSE` command right now.
    ///
    /// Under an active fault plan the command may instead fail with a
    /// transient [`AlterError::ServiceUnavailable`]/[`AlterError::Throttled`]
    /// (nothing applied) or be acknowledged with `Ok` but applied after a
    /// delay. Malformed commands are rejected up front, before the injector
    /// is consulted — a real CDW validates the statement before its control
    /// plane can flake on it.
    pub fn alter_warehouse(
        &mut self,
        wh: WarehouseId,
        cmd: WarehouseCommand,
        source: ActionSource,
    ) -> Result<(), AlterError> {
        cmd.validate()?;
        match self.injector.on_alter(self.clock) {
            AlterFault::Fail(kind) => return Err(kind.to_error()),
            AlterFault::Delay { delay_ms } => {
                self.push(self.clock + delay_ms, Event::Deferred { wh, cmd, source });
                return Ok(());
            }
            AlterFault::None => {}
        }
        let mut schedule = std::mem::take(&mut self.scratch);
        debug_assert!(schedule.is_empty());
        let res = self
            .account
            .apply_command(wh, self.clock, cmd, source, &mut schedule);
        for (at, ev) in schedule.drain(..) {
            self.push_wh(wh, at, ev);
        }
        self.scratch = schedule;
        res
    }

    /// Advances the clock, processing every event with `at <= until`, and
    /// leaves the clock at `until`.
    ///
    /// # Panics
    /// Panics if `until` is before the current clock.
    pub fn run_until(&mut self, until: SimTime) {
        assert!(until >= self.clock, "cannot run backwards");
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > until {
                break;
            }
            let Some(Reverse(sch)) = self.queue.pop() else {
                break;
            };
            debug_assert!(sch.at >= self.clock, "event from the past");
            self.clock = sch.at;
            self.processed_events += 1;
            // Reuse the scratch schedule buffer across events: take it out,
            // fill it while the account is borrowed, then drain it back into
            // the heap and return its capacity. Zero allocations at steady
            // state.
            let mut schedule = std::mem::take(&mut self.scratch);
            debug_assert!(schedule.is_empty());
            let target = match sch.event {
                Event::Arrival { wh, spec } => {
                    self.account
                        .with_warehouse(wh, self.clock, &mut schedule, |w, ctx| {
                            w.submit(ctx, spec)
                        });
                    wh
                }
                Event::TraceArrival { wh, trace, idx } => {
                    let spec = self.traces[trace as usize][idx as usize].clone();
                    self.account
                        .with_warehouse(wh, self.clock, &mut schedule, |w, ctx| {
                            w.submit(ctx, spec)
                        });
                    wh
                }
                Event::Warehouse { wh, ev } => {
                    self.account
                        .with_warehouse(wh, self.clock, &mut schedule, |w, ctx| match ev {
                            WhEvent::QueryDone { run_id } => w.on_query_done(ctx, run_id),
                            WhEvent::ResumeDone { generation } => w.on_resume_done(ctx, generation),
                            WhEvent::ClusterReady { cluster_id } => {
                                w.on_cluster_ready(ctx, cluster_id)
                            }
                            WhEvent::IdleCheck { generation } => w.on_idle_check(ctx, generation),
                            WhEvent::RetireCheck { cluster_id } => {
                                w.on_retire_check(ctx, cluster_id)
                            }
                        });
                    wh
                }
                Event::Deferred { wh, cmd, source } => {
                    let res =
                        self.account
                            .apply_command(wh, self.clock, cmd, source, &mut schedule);
                    if res.is_err() {
                        self.injector.note_deferred_apply_error();
                    }
                    wh
                }
            };
            for (at, ev) in schedule.drain(..) {
                self.push_wh(target, at, ev);
            }
            self.scratch = schedule;
            if let Some(hook) = self.post_event_hook.as_mut() {
                (hook.0)(&self.account, self.clock);
            }
        }
        self.clock = until;
    }

    /// Runs until the event queue is empty, returning the final clock. Use
    /// for "drain the workload" style tests; unbounded workloads should use
    /// [`Simulator::run_until`].
    pub fn run_to_completion(&mut self) -> SimTime {
        while let Some(Reverse(head)) = self.queue.peek() {
            let at = head.at;
            self.run_until(at);
        }
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::MIN_BILL_SECONDS;
    use crate::config::WarehouseConfig;
    use crate::policy::ScalingPolicy;
    use crate::records::WarehouseEventKind;
    use crate::size::WarehouseSize;
    use crate::time::{HOUR_MS, MINUTE_MS, SECOND_MS};
    use crate::warehouse::{WarehouseState, RESUME_DELAY_MS};

    fn single_wh_sim(config: WarehouseConfig) -> (Simulator, WarehouseId) {
        let mut acc = Account::new();
        let id = acc.create_warehouse("WH", config);
        (Simulator::new(acc), id)
    }

    fn q(id: u64, arrival: SimTime, work_ms: f64) -> QuerySpec {
        QuerySpec::builder(id)
            .work_ms_xs(work_ms)
            .cache_affinity(0.0)
            .arrival_ms(arrival)
            .build()
    }

    #[test]
    fn single_query_lifecycle_produces_record_and_bill() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(60));
        sim.submit_query(wh, q(1, 1_000, 10_000.0));
        sim.run_until(HOUR_MS);

        let records = sim.account().query_records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        // Arrival 1s, resume takes 2s, then 10s execution.
        assert_eq!(r.arrival, 1_000);
        assert_eq!(r.start, 1_000 + RESUME_DELAY_MS);
        assert_eq!(r.end, r.start + 10_000);
        assert_eq!(r.queued_ms(), RESUME_DELAY_MS);

        // Warehouse should have auto-suspended 60 s after going idle.
        assert_eq!(
            sim.account().warehouse(wh).state(),
            WarehouseState::Suspended
        );
        // Billing: active from 3 s (resume done) to 13 s (done) + 60 s idle
        // = 70 s of runtime, billed per-second above the 60 s minimum.
        let credits = sim.account().ledger().warehouse("WH").total();
        let expected = 70.0 / 3600.0;
        assert!(
            (credits - expected).abs() < 2.0 / 3600.0,
            "credits {credits} vs expected {expected}"
        );
    }

    #[test]
    fn short_burst_bills_minimum_sixty_seconds() {
        let mut cfg = WarehouseConfig::new(WarehouseSize::XSmall);
        cfg.auto_suspend_ms = SECOND_MS; // suspend almost immediately
        let (mut sim, wh) = single_wh_sim(cfg);
        sim.submit_query(wh, q(1, 0, 1_000.0));
        sim.run_until(10 * MINUTE_MS);
        let credits = sim.account().ledger().warehouse("WH").total();
        let min = MIN_BILL_SECONDS as f64 / 3600.0;
        assert!(
            credits >= min - 1e-12,
            "credits {credits} below the 60 s minimum {min}"
        );
    }

    #[test]
    fn warehouse_resumes_and_suspends_repeatedly() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(30));
        // Two bursts separated by well over the auto-suspend interval.
        sim.submit_query(wh, q(1, 0, 5_000.0));
        sim.submit_query(wh, q(2, 20 * MINUTE_MS, 5_000.0));
        sim.run_until(HOUR_MS);

        let kinds: Vec<WarehouseEventKind> = sim
            .account()
            .event_records()
            .iter()
            .map(|e| e.kind)
            .collect();
        let resumed = kinds
            .iter()
            .filter(|k| **k == WarehouseEventKind::Resumed)
            .count();
        let suspended = kinds
            .iter()
            .filter(|k| **k == WarehouseEventKind::Suspended)
            .count();
        assert_eq!(resumed, 2, "one resume per burst: {kinds:?}");
        assert_eq!(suspended, 2, "one suspend per burst: {kinds:?}");
    }

    #[test]
    fn cold_cache_slows_queries_after_resume() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(30));
        let cache_sensitive = |id, t| {
            QuerySpec::builder(id)
                .work_ms_xs(10_000.0)
                .cache_affinity(1.0)
                .arrival_ms(t)
                .build()
        };
        // First query cold, second query right after (warm-ish), third after
        // a suspend (cold again).
        sim.submit_query(wh, cache_sensitive(1, 0));
        sim.submit_query(wh, cache_sensitive(2, 40 * SECOND_MS));
        sim.submit_query(wh, cache_sensitive(3, 30 * MINUTE_MS));
        sim.run_until(HOUR_MS);
        let rec = sim.account().query_records();
        assert_eq!(rec.len(), 3);
        let (e1, e2, e3) = (
            rec[0].execution_ms(),
            rec[1].execution_ms(),
            rec[2].execution_ms(),
        );
        assert!(
            e2 < e1,
            "second query benefits from warmed cache: {e1} vs {e2}"
        );
        assert!(
            e3 > e2,
            "third query is cold again after suspend: {e2} vs {e3}"
        );
        assert_eq!(e1, e3, "both fully cold runs take the same time");
    }

    #[test]
    fn standard_policy_scales_out_under_queueing() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(1, 3)
            .with_max_concurrency(1)
            .with_auto_suspend_secs(600);
        let (mut sim, wh) = single_wh_sim(cfg);
        // Three long queries arriving together: with concurrency 1, standard
        // policy should fan out to 3 clusters.
        for i in 0..3 {
            sim.submit_query(wh, q(i, 0, 60_000.0));
        }
        sim.run_until(30 * SECOND_MS);
        assert_eq!(
            sim.account().warehouse(wh).running_clusters()
                + sim.account().warehouse(wh).starting_clusters(),
            3
        );
        sim.run_until(HOUR_MS);
        // All queries completed and overlapped (started within the startup
        // window rather than serially).
        let rec = sim.account().query_records();
        assert_eq!(rec.len(), 3);
        let max_start = rec.iter().map(|r| r.start).max().unwrap();
        assert!(
            max_start < 10 * SECOND_MS,
            "queries should start nearly together, last at {max_start}"
        );
    }

    #[test]
    fn economy_policy_queues_instead_of_scaling_for_small_bursts() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(1, 3)
            .with_policy(ScalingPolicy::Economy)
            .with_max_concurrency(1)
            .with_auto_suspend_secs(600);
        let (mut sim, wh) = single_wh_sim(cfg);
        // Two 10 s queries: 10 s of queued work << 6 min threshold.
        sim.submit_query(wh, q(1, 0, 10_000.0));
        sim.submit_query(wh, q(2, 0, 10_000.0));
        sim.run_until(5 * SECOND_MS);
        assert_eq!(
            sim.account().warehouse(wh).running_clusters()
                + sim.account().warehouse(wh).starting_clusters(),
            1,
            "economy should not scale out for 20 s of work"
        );
        sim.run_until(HOUR_MS);
        let rec = sim.account().query_records();
        assert_eq!(rec.len(), 2);
        assert!(
            rec[1].queued_ms() >= 10_000,
            "second query waited for the first"
        );
    }

    #[test]
    fn maximized_policy_runs_all_clusters() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(3, 3)
            .with_policy(ScalingPolicy::Maximized)
            .with_auto_suspend_secs(600);
        let (mut sim, wh) = single_wh_sim(cfg);
        sim.submit_query(wh, q(1, 0, 1_000.0));
        sim.run_until(10 * SECOND_MS);
        assert_eq!(sim.account().warehouse(wh).running_clusters(), 3);
    }

    #[test]
    fn surplus_clusters_retire_after_idle_period() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(1, 3)
            .with_max_concurrency(1)
            .with_auto_suspend_secs(3600);
        let (mut sim, wh) = single_wh_sim(cfg);
        for i in 0..3 {
            sim.submit_query(wh, q(i, 0, 30_000.0));
        }
        // After the burst, keep a trickle of work so the warehouse stays
        // resumed but only needs one cluster.
        for i in 0..10 {
            sim.submit_query(wh, q(100 + i, MINUTE_MS + i * MINUTE_MS, 1_000.0));
        }
        sim.run_until(20 * MINUTE_MS);
        assert_eq!(
            sim.account().warehouse(wh).running_clusters(),
            1,
            "surplus clusters should have retired"
        );
    }

    #[test]
    fn resize_takes_effect_for_new_queries() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(3600));
        sim.submit_query(wh, q(1, 0, 16_000.0));
        sim.run_until(30 * SECOND_MS);
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetSize(WarehouseSize::Medium),
            ActionSource::Keebo,
        )
        .unwrap();
        sim.submit_query(wh, q(2, 31 * SECOND_MS, 16_000.0));
        sim.run_until(10 * MINUTE_MS);
        let rec = sim.account().query_records();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[0].execution_ms(), 16_000, "XS run");
        assert_eq!(rec[1].execution_ms(), 4_000, "Medium = 4x throughput");
        assert_eq!(rec[0].size, WarehouseSize::XSmall);
        assert_eq!(rec[1].size, WarehouseSize::Medium);
    }

    #[test]
    fn resize_closes_and_reopens_billing_sessions() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(3600));
        sim.submit_query(wh, q(1, 0, 1_000.0));
        sim.run_until(2 * MINUTE_MS);
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetSize(WarehouseSize::Small),
            ActionSource::Keebo,
        )
        .unwrap();
        sim.run_until(4 * MINUTE_MS);
        sim.alter_warehouse(wh, WarehouseCommand::Suspend, ActionSource::Keebo)
            .unwrap();
        sim.run_until(5 * MINUTE_MS);
        // Session 1: resume (2s) to 2 min at XS rate (~118 s). Session 2:
        // 2 min to 4 min at Small rate (120 s, doubled rate).
        let credits = sim.account().ledger().warehouse("WH").total();
        let expected = 118.0 / 3600.0 + 120.0 * 2.0 / 3600.0;
        assert!(
            (credits - expected).abs() < 3.0 / 3600.0,
            "credits {credits} vs {expected}"
        );
    }

    #[test]
    fn manual_suspend_waits_for_running_queries() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(3600));
        sim.submit_query(wh, q(1, 0, 60_000.0));
        sim.run_until(10 * SECOND_MS);
        sim.alter_warehouse(wh, WarehouseCommand::Suspend, ActionSource::Keebo)
            .unwrap();
        // Query still running: warehouse not suspended yet.
        assert_eq!(sim.account().warehouse(wh).state(), WarehouseState::Running);
        sim.run_until(2 * MINUTE_MS);
        assert_eq!(
            sim.account().warehouse(wh).state(),
            WarehouseState::Suspended
        );
        assert_eq!(
            sim.account().query_records().len(),
            1,
            "query completed first"
        );
    }

    #[test]
    fn suspend_when_already_suspended_errors() {
        let (mut sim, wh) = single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall));
        let err = sim
            .alter_warehouse(wh, WarehouseCommand::Suspend, ActionSource::External)
            .unwrap_err();
        assert_eq!(err, AlterError::AlreadySuspended);
    }

    #[test]
    fn auto_suspend_zero_disables_suspension() {
        let mut cfg = WarehouseConfig::new(WarehouseSize::XSmall);
        cfg.auto_suspend_ms = 0;
        let (mut sim, wh) = single_wh_sim(cfg);
        sim.submit_query(wh, q(1, 0, 1_000.0));
        sim.run_until(2 * HOUR_MS);
        assert_eq!(sim.account().warehouse(wh).state(), WarehouseState::Running);
        // Billing keeps accruing for the whole window.
        let credits = sim.account().ledger().warehouse("WH").total();
        assert_eq!(credits, 0.0, "session still open; nothing billed yet");
    }

    #[test]
    fn events_process_in_deterministic_order() {
        let run = || {
            let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
                .with_clusters(1, 4)
                .with_max_concurrency(2)
                .with_auto_suspend_secs(120);
            let (mut sim, wh) = single_wh_sim(cfg);
            for i in 0..50 {
                sim.submit_query(
                    wh,
                    q(i, (i % 7) * 10 * SECOND_MS, 5_000.0 + i as f64 * 100.0),
                );
            }
            sim.run_until(HOUR_MS);
            (
                sim.account().ledger().warehouse("WH").total(),
                sim.account()
                    .query_records()
                    .iter()
                    .map(|r| (r.query_id, r.start, r.end))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_grows_when_scale_out_capped() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(1, 1)
            .with_max_concurrency(1)
            .with_auto_suspend_secs(3600);
        let (mut sim, wh) = single_wh_sim(cfg);
        for i in 0..5 {
            sim.submit_query(wh, q(i, 0, 10_000.0));
        }
        sim.run_until(5 * SECOND_MS);
        assert_eq!(sim.account().warehouse(wh).queued_queries(), 4);
        sim.run_until(HOUR_MS);
        let rec = sim.account().query_records();
        assert_eq!(rec.len(), 5);
        // Serial execution: each query's queue time grows by ~10 s.
        let mut sorted: Vec<_> = rec.iter().map(|r| r.queued_ms()).collect();
        sorted.sort_unstable();
        assert!(sorted[4] >= 40_000, "last query queued {} ms", sorted[4]);
    }

    #[test]
    fn dropped_queries_counted_when_auto_resume_off() {
        let mut cfg = WarehouseConfig::new(WarehouseSize::XSmall);
        cfg.auto_resume = false;
        let (mut sim, wh) = single_wh_sim(cfg);
        sim.submit_query(wh, q(1, 0, 1_000.0));
        sim.run_until(MINUTE_MS);
        assert_eq!(sim.account().warehouse(wh).dropped_queries(), 1);
        assert!(sim.account().query_records().is_empty());
    }

    #[test]
    fn run_to_completion_drains_queue() {
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(60));
        sim.submit_query(wh, q(1, 0, 5_000.0));
        let end = sim.run_to_completion();
        assert!(end > 0);
        assert_eq!(sim.account().query_records().len(), 1);
        assert_eq!(
            sim.account().warehouse(wh).state(),
            WarehouseState::Suspended
        );
    }

    #[test]
    fn post_event_hook_fires_once_per_event_with_monotone_clock() {
        use std::sync::{Arc, Mutex, PoisonError};
        let (mut sim, wh) =
            single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(60));
        let seen: Arc<Mutex<Vec<SimTime>>> = Arc::default();
        let sink = Arc::clone(&seen);
        sim.set_post_event_hook(move |_, now| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(now)
        });
        sim.submit_query(wh, q(1, 1_000, 10_000.0));
        sim.submit_query(wh, q(2, 5_000, 2_000.0));
        sim.run_until(HOUR_MS);
        let seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(seen.len() as u64, sim.processed_events());
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "clock monotone");
        assert!(!seen.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn run_backwards_panics() {
        let (mut sim, _) = single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall));
        sim.run_until(100);
        sim.run_until(50);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn submitting_into_the_past_panics() {
        let (mut sim, wh) = single_wh_sim(WarehouseConfig::new(WarehouseSize::XSmall));
        sim.run_until(10_000);
        sim.submit_query(wh, q(1, 5_000, 1_000.0));
    }
}

#[cfg(test)]
mod command_tests {
    use super::*;
    use crate::config::WarehouseConfig;
    use crate::policy::ScalingPolicy;
    use crate::size::WarehouseSize;
    use crate::time::{HOUR_MS, MINUTE_MS, SECOND_MS};
    use crate::warehouse::WarehouseState;

    fn sim_one(config: WarehouseConfig) -> (Simulator, WarehouseId) {
        let mut acc = Account::new();
        let id = acc.create_warehouse("WH", config);
        (Simulator::new(acc), id)
    }

    fn q(id: u64, arrival: SimTime, work_ms: f64) -> QuerySpec {
        QuerySpec::builder(id)
            .work_ms_xs(work_ms)
            .cache_affinity(0.0)
            .arrival_ms(arrival)
            .build()
    }

    #[test]
    fn switching_to_maximized_widens_min_and_starts_all_clusters() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(1, 3)
            .with_auto_suspend_secs(3600);
        let (mut sim, wh) = sim_one(cfg);
        sim.submit_query(wh, q(1, 0, 5_000.0));
        sim.run_until(10 * SECOND_MS);
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetScalingPolicy(ScalingPolicy::Maximized),
            ActionSource::External,
        )
        .unwrap();
        sim.run_until(20 * SECOND_MS);
        let desc = sim.account().describe(wh);
        assert_eq!(desc.config.min_clusters, 3, "Maximized widens min to max");
        assert_eq!(desc.running_clusters, 3, "all clusters start");
    }

    #[test]
    fn shrinking_cluster_range_stops_idle_surplus() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(3, 3)
            .with_policy(ScalingPolicy::Maximized)
            .with_auto_suspend_secs(3600);
        let (mut sim, wh) = sim_one(cfg);
        sim.submit_query(wh, q(1, 0, 5_000.0));
        sim.run_until(MINUTE_MS);
        assert_eq!(sim.account().warehouse(wh).running_clusters(), 3);
        // Back to a single-cluster standard warehouse.
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetScalingPolicy(ScalingPolicy::Standard),
            ActionSource::External,
        )
        .unwrap();
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetClusterRange { min: 1, max: 1 },
            ActionSource::External,
        )
        .unwrap();
        sim.run_until(2 * MINUTE_MS);
        assert_eq!(sim.account().warehouse(wh).running_clusters(), 1);
    }

    #[test]
    fn invalid_cluster_range_is_rejected_without_side_effects() {
        let (mut sim, wh) = sim_one(WarehouseConfig::new(WarehouseSize::Small));
        let before = sim.account().describe(wh).config.clone();
        let err = sim
            .alter_warehouse(
                wh,
                WarehouseCommand::SetClusterRange { min: 5, max: 2 },
                ActionSource::External,
            )
            .unwrap_err();
        assert!(matches!(err, AlterError::InvalidConfig(_)));
        assert_eq!(sim.account().describe(wh).config, before);
    }

    #[test]
    fn manual_resume_starts_billing_without_queries() {
        let cfg = WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(0);
        let (mut sim, wh) = sim_one(cfg);
        sim.alter_warehouse(wh, WarehouseCommand::Resume, ActionSource::External)
            .unwrap();
        sim.run_until(HOUR_MS);
        assert_eq!(sim.account().warehouse(wh).state(), WarehouseState::Running);
        // Nothing in the ledger (session still open) but credits accrue.
        let accrued = sim.account().accrued_credits(wh, HOUR_MS);
        assert!(
            (accrued - 2.0).abs() < 0.01,
            "one Small cluster for an hour: {accrued}"
        );
    }

    #[test]
    fn resume_while_running_errors() {
        let (mut sim, wh) = sim_one(WarehouseConfig::new(WarehouseSize::Small));
        sim.alter_warehouse(wh, WarehouseCommand::Resume, ActionSource::External)
            .unwrap();
        sim.run_until(10 * SECOND_MS);
        let err = sim
            .alter_warehouse(wh, WarehouseCommand::Resume, ActionSource::External)
            .unwrap_err();
        assert_eq!(err, AlterError::AlreadyRunning);
    }

    #[test]
    fn resize_while_suspended_costs_nothing() {
        let (mut sim, wh) = sim_one(WarehouseConfig::new(WarehouseSize::Small));
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetSize(WarehouseSize::X2Large),
            ActionSource::External,
        )
        .unwrap();
        sim.run_until(HOUR_MS);
        assert_eq!(sim.account().ledger().total_credits(), 0.0);
        assert_eq!(
            sim.account().describe(wh).config.size,
            WarehouseSize::X2Large
        );
    }

    #[test]
    fn auto_suspend_change_while_idle_reschedules_suspension() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(3600);
        let (mut sim, wh) = sim_one(cfg);
        sim.submit_query(wh, q(1, 0, 1_000.0));
        sim.run_until(MINUTE_MS);
        assert_eq!(sim.account().warehouse(wh).state(), WarehouseState::Running);
        // Tighten auto-suspend to 30 s; the idle warehouse should suspend
        // promptly instead of waiting out the original hour.
        sim.alter_warehouse(
            wh,
            WarehouseCommand::SetAutoSuspend { ms: 30_000 },
            ActionSource::Keebo,
        )
        .unwrap();
        sim.run_until(3 * MINUTE_MS);
        assert_eq!(
            sim.account().warehouse(wh).state(),
            WarehouseState::Suspended
        );
    }

    #[test]
    fn longest_running_tracks_in_flight_queries() {
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(3600);
        let (mut sim, wh) = sim_one(cfg);
        sim.submit_query(wh, q(1, 0, 600_000.0));
        sim.run_until(5 * MINUTE_MS);
        let running = sim.account().warehouse(wh).longest_running_ms(sim.now());
        assert!(
            (4 * MINUTE_MS..=5 * MINUTE_MS).contains(&running),
            "got {running}"
        );
        sim.run_until(HOUR_MS);
        assert_eq!(sim.account().warehouse(wh).longest_running_ms(sim.now()), 0);
    }

    #[test]
    fn shared_trace_is_bit_identical_to_per_query_submission() {
        let cfg = WarehouseConfig::new(WarehouseSize::Small)
            .with_auto_suspend_secs(120)
            .with_clusters(1, 3)
            .with_policy(ScalingPolicy::Standard);
        let trace: Vec<QuerySpec> = (0..40)
            .map(|i| {
                q(
                    i,
                    (i as SimTime) * 1_700 % 50_000,
                    500.0 + 137.0 * (i % 7) as f64,
                )
            })
            .collect();

        let (mut cloned, wh_a) = sim_one(cfg.clone());
        for spec in trace.iter().cloned() {
            cloned.submit_query(wh_a, spec);
        }
        cloned.run_to_completion();

        let (mut shared, wh_b) = sim_one(cfg);
        shared.submit_trace_shared(wh_b, trace.into());
        shared.run_to_completion();

        assert_eq!(cloned.now(), shared.now());
        assert_eq!(
            cloned.account().query_records(),
            shared.account().query_records()
        );
        assert_eq!(
            cloned.account().event_records(),
            shared.account().event_records()
        );
        assert_eq!(
            cloned.account().ledger().warehouse("WH").total().to_bits(),
            shared.account().ledger().warehouse("WH").total().to_bits()
        );
    }
}
