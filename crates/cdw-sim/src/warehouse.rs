//! The virtual-warehouse state machine.
//!
//! A warehouse transitions between Suspended, Resuming, and Running; owns a
//! set of clusters, a FIFO query queue, and a cache; and reacts to query
//! arrivals/completions, timers, and `ALTER WAREHOUSE` commands. All methods
//! are passive: they mutate state and emit *effects* (billing entries,
//! telemetry records, future events) through [`WhContext`]; the event loop in
//! [`crate::sim`] owns time.

use crate::api::{AlterError, WarehouseCommand};
use crate::billing::BillingLedger;
use crate::cache::CacheState;
use crate::cluster::{Cluster, ClusterState};
use crate::config::WarehouseConfig;
use crate::exec::execution_ms;
use crate::policy::ScalingPolicy;
use crate::query::QuerySpec;
use crate::records::{
    ActionSource, QueryRecord, WarehouseEventKind, WarehouseEventRecord, WarehouseName,
};
use crate::size::WarehouseSize;
use crate::time::SimTime;
use keebo_obs::Histogram;
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

/// Queue-wait histogram (ms between arrival and execution start), shared by
/// every warehouse in the process. Observability only: never read back.
fn queue_wait_histogram() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        keebo_obs::global().histogram(
            "cdw_sim.query.queue_wait_ms",
            &[0.0, 100.0, 1_000.0, 5_000.0, 15_000.0, 60_000.0, 300_000.0],
        )
    })
}

/// Warehouse lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarehouseState {
    /// No clusters running, no credits accruing, cache dropped.
    Suspended,
    /// Waking up; becomes Running at `ready_at`.
    Resuming { ready_at: SimTime },
    /// At least `min_clusters` clusters up.
    Running,
}

/// Events a warehouse asks the simulator to deliver later. The simulator
/// attaches the warehouse id when enqueueing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WhEvent {
    /// A running query finishes.
    QueryDone { run_id: u64 },
    /// Resume completes (stale if `generation` mismatches).
    ResumeDone { generation: u64 },
    /// A scale-out cluster finishes provisioning.
    ClusterReady { cluster_id: u32 },
    /// Check whether the warehouse should auto-suspend.
    IdleCheck { generation: u64 },
    /// Check whether a surplus cluster should be retired.
    RetireCheck { cluster_id: u32 },
}

/// Mutable context threaded through every warehouse method: the current
/// time plus sinks for billing, telemetry, and future events.
pub struct WhContext<'a> {
    pub now: SimTime,
    pub ledger: &'a mut BillingLedger,
    pub query_records: &'a mut Vec<QueryRecord>,
    pub event_records: &'a mut Vec<WarehouseEventRecord>,
    /// (fire time, event) pairs the simulator will enqueue.
    pub schedule: &'a mut Vec<(SimTime, WhEvent)>,
}

/// How long a suspended warehouse takes to resume. Snowflake resumes are
/// typically 1–3 seconds.
pub const RESUME_DELAY_MS: SimTime = 2_000;
/// How long an additional cluster takes to provision during scale-out.
pub const CLUSTER_START_DELAY_MS: SimTime = 1_000;

/// A query currently executing.
#[derive(Debug, Clone)]
struct RunningQuery {
    spec: QuerySpec,
    cluster_id: u32,
    start: SimTime,
    warm_at_start: f64,
    latency_ms: SimTime,
    /// Warehouse size when the query started (recorded in telemetry; the
    /// query keeps its latency even if the warehouse resizes mid-flight).
    size: WarehouseSize,
}

/// One queued (not yet started) query.
#[derive(Debug, Clone)]
struct QueuedQuery {
    spec: QuerySpec,
}

/// A virtual warehouse.
#[derive(Debug)]
pub struct Warehouse {
    name: WarehouseName,
    config: WarehouseConfig,
    state: WarehouseState,
    clusters: Vec<Cluster>,
    next_cluster_id: u32,
    queue: VecDeque<QueuedQuery>,
    running: BTreeMap<u64, RunningQuery>,
    next_run_id: u64,
    cache: CacheState,
    /// Bumped on every activity transition; stale IdleCheck/ResumeDone
    /// events are ignored.
    generation: u64,
    /// When the warehouse last became fully idle (Running, no queries).
    idle_start: Option<SimTime>,
    /// A manual Suspend arrived while queries were running; suspend as soon
    /// as the warehouse drains.
    suspend_when_idle: bool,
    /// Queries dropped because the warehouse was suspended with auto-resume
    /// disabled.
    dropped_queries: u64,
    /// EWMA of recent execution times, used by the Economy policy to decide
    /// whether queued work justifies a new cluster.
    exec_ewma_ms: f64,
}

impl Warehouse {
    /// Creates a warehouse in the Suspended state.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(name: impl Into<WarehouseName>, config: WarehouseConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented panicking constructor; validate() is the fallible path"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid warehouse config: {e}"));
        Self {
            name: name.into(),
            config,
            state: WarehouseState::Suspended,
            clusters: Vec::new(),
            next_cluster_id: 0,
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            next_run_id: 0,
            cache: CacheState::with_default_tau(),
            generation: 0,
            idle_start: None,
            suspend_when_idle: false,
            dropped_queries: 0,
            exec_ewma_ms: 60_000.0,
        }
    }

    // ---- accessors -------------------------------------------------------

    /// The name, as the handle every record of this warehouse shares.
    pub fn name(&self) -> &WarehouseName {
        &self.name
    }

    pub fn state(&self) -> WarehouseState {
        self.state
    }

    pub fn config(&self) -> &WarehouseConfig {
        &self.config
    }

    /// Clusters currently running (billing).
    pub fn running_clusters(&self) -> u32 {
        self.clusters
            .iter()
            .filter(|c| matches!(c.state, ClusterState::Running))
            .count() as u32
    }

    /// Clusters provisioning.
    pub fn starting_clusters(&self) -> u32 {
        self.clusters
            .iter()
            .filter(|c| matches!(c.state, ClusterState::Starting { .. }))
            .count() as u32
    }

    /// Queries waiting for a slot.
    pub fn queued_queries(&self) -> usize {
        self.queue.len()
    }

    /// Queries currently executing.
    pub fn running_queries(&self) -> usize {
        self.running.len()
    }

    /// Queries dropped due to suspended + auto-resume off.
    pub fn dropped_queries(&self) -> u64 {
        self.dropped_queries
    }

    /// Current cache warm fraction.
    pub fn cache_warm_fraction(&self) -> f64 {
        self.cache.warm_fraction()
    }

    /// Elapsed time of the longest-running in-flight query (0 when idle).
    /// Real CDWs expose running-query elapsed times; monitoring uses this
    /// to catch slowdowns before the slow queries ever complete.
    pub fn longest_running_ms(&self, now: SimTime) -> SimTime {
        self.running
            .values()
            .map(|r| now.saturating_sub(r.start))
            .max()
            .unwrap_or(0)
    }

    /// Credits accrued by currently open billing sessions up to `now` (the
    /// ledger only records closed sessions). Includes the 60-second minimum
    /// each open session has already committed to.
    pub fn open_session_credits(&self, now: SimTime) -> f64 {
        self.clusters
            .iter()
            .filter(|c| matches!(c.state, crate::cluster::ClusterState::Running))
            .map(|c| {
                crate::billing::session_credits(c.session_size, now.saturating_sub(c.session_start))
            })
            .sum()
    }

    // ---- query path ------------------------------------------------------

    /// Submits a query. Depending on state this starts it, queues it, or
    /// triggers an auto-resume.
    pub fn submit(&mut self, ctx: &mut WhContext<'_>, spec: QuerySpec) {
        spec.validate();
        match self.state {
            WarehouseState::Suspended => {
                if !self.config.auto_resume {
                    self.dropped_queries += 1;
                    return;
                }
                self.queue.push_back(QueuedQuery { spec });
                self.begin_resume(ctx, ActionSource::System);
            }
            WarehouseState::Resuming { .. } => {
                self.queue.push_back(QueuedQuery { spec });
            }
            WarehouseState::Running => {
                self.idle_start = None;
                self.queue.push_back(QueuedQuery { spec });
                self.drain_queue(ctx);
                self.maybe_scale_out(ctx);
            }
        }
    }

    /// Handles a query completion event.
    pub fn on_query_done(&mut self, ctx: &mut WhContext<'_>, run_id: u64) {
        let Some(rq) = self.running.remove(&run_id) else {
            // Stale event after an external reset; ignore.
            return;
        };
        // Warm the cache by the executed work.
        self.cache.record_execution(rq.latency_ms);
        if let Some(cluster) = self.clusters.iter_mut().find(|c| c.id == rq.cluster_id) {
            cluster.end_query(ctx.now);
        }
        self.exec_ewma_ms = 0.9 * self.exec_ewma_ms + 0.1 * rq.latency_ms as f64;
        queue_wait_histogram().observe((rq.start - rq.spec.arrival) as f64);
        ctx.query_records.push(QueryRecord {
            query_id: rq.spec.id,
            warehouse: self.name.clone(),
            size: rq.size,
            cluster_count: self.running_clusters().max(1),
            text_hash: rq.spec.text_hash,
            template_hash: rq.spec.template_hash,
            arrival: rq.spec.arrival,
            start: rq.start,
            end: ctx.now,
            bytes_scanned: rq.spec.bytes_scanned,
            cache_warm_fraction: rq.warm_at_start,
        });
        self.drain_queue(ctx);
        self.maybe_scale_out(ctx);
        self.enforce_cluster_maximum(ctx);
        self.after_activity(ctx);
    }

    /// Handles resume completion.
    pub fn on_resume_done(&mut self, ctx: &mut WhContext<'_>, generation: u64) {
        if generation != self.generation {
            return; // stale
        }
        let WarehouseState::Resuming { .. } = self.state else {
            return;
        };
        self.state = WarehouseState::Running;
        // Start the minimum cluster count (all clusters for Maximized, since
        // min == max there).
        for _ in 0..self.config.min_clusters {
            self.start_cluster_immediately(ctx);
        }
        self.emit_event(ctx, WarehouseEventKind::Resumed, ActionSource::System);
        self.drain_queue(ctx);
        self.maybe_scale_out(ctx);
        self.after_activity(ctx);
    }

    /// Handles a scale-out cluster becoming ready.
    pub fn on_cluster_ready(&mut self, ctx: &mut WhContext<'_>, cluster_id: u32) {
        if !matches!(self.state, WarehouseState::Running) {
            // Warehouse suspended while the cluster was provisioning; the
            // cluster was already discarded.
            return;
        }
        let Some(cluster) = self.clusters.iter_mut().find(|c| c.id == cluster_id) else {
            return;
        };
        let ClusterState::Starting { .. } = cluster.state else {
            return;
        };
        cluster.state = ClusterState::Running;
        cluster.session_start = ctx.now;
        cluster.session_size = self.config.size;
        cluster.idle_since = Some(ctx.now);
        self.emit_event(
            ctx,
            WarehouseEventKind::ClusterStarted,
            ActionSource::System,
        );
        self.drain_queue(ctx);
        self.maybe_scale_out(ctx);
        self.after_activity(ctx);
    }

    /// Handles an auto-suspend check.
    pub fn on_idle_check(&mut self, ctx: &mut WhContext<'_>, generation: u64) {
        if generation != self.generation {
            return; // activity happened since this was scheduled
        }
        if !matches!(self.state, WarehouseState::Running) {
            return;
        }
        let Some(idle_start) = self.idle_start else {
            return;
        };
        if self.config.auto_suspend_ms == 0 {
            return; // auto-suspend disabled
        }
        if ctx.now >= idle_start + self.config.auto_suspend_ms {
            self.suspend_now(ctx, ActionSource::System);
        }
    }

    /// Handles a cluster-retirement check.
    pub fn on_retire_check(&mut self, ctx: &mut WhContext<'_>, cluster_id: u32) {
        if !matches!(self.state, WarehouseState::Running) {
            return;
        }
        let retire_ms = self.config.scaling_policy.idle_retire_ms();
        if retire_ms == u64::MAX {
            return;
        }
        if self.running_clusters() <= self.config.min_clusters {
            return;
        }
        let Some(pos) = self.clusters.iter().position(|c| c.id == cluster_id) else {
            return;
        };
        let cluster = &self.clusters[pos];
        let Some(idle_since) = cluster.idle_since else {
            return; // busy again
        };
        if ctx.now >= idle_since + retire_ms {
            self.stop_cluster(ctx, pos, ActionSource::System);
            self.after_activity(ctx);
        } else {
            // Became idle more recently; re-check at the new deadline.
            ctx.schedule
                .push((idle_since + retire_ms, WhEvent::RetireCheck { cluster_id }));
        }
    }

    // ---- command surface (the ALTER WAREHOUSE API) ------------------------

    /// Applies a configuration command, emitting audit events tagged with
    /// `source` so the monitoring layer can distinguish Keebo's actions from
    /// external ones.
    pub fn apply_command(
        &mut self,
        ctx: &mut WhContext<'_>,
        cmd: WarehouseCommand,
        source: ActionSource,
    ) -> Result<(), AlterError> {
        match cmd {
            WarehouseCommand::SetSize(size) => {
                if size != self.config.size {
                    self.resize(ctx, size, source);
                }
                Ok(())
            }
            WarehouseCommand::SetAutoSuspend { ms } => {
                self.config.auto_suspend_ms = ms;
                self.emit_event(ctx, WarehouseEventKind::AutoSuspendChanged, source);
                // Re-arm the idle timer under the new interval.
                if let Some(idle_start) = self.idle_start {
                    self.generation += 1;
                    if ms > 0 {
                        let deadline = (idle_start + ms).max(ctx.now);
                        ctx.schedule.push((
                            deadline,
                            WhEvent::IdleCheck {
                                generation: self.generation,
                            },
                        ));
                    }
                }
                Ok(())
            }
            WarehouseCommand::SetClusterRange { min, max } => {
                let mut next = self.config.clone();
                next.min_clusters = min;
                next.max_clusters = max;
                next.validate().map_err(AlterError::InvalidConfig)?;
                self.config = next;
                self.emit_event(ctx, WarehouseEventKind::ClusterRangeChanged, source);
                if matches!(self.state, WarehouseState::Running) {
                    while self.running_clusters() < self.config.min_clusters {
                        self.start_cluster_immediately(ctx);
                    }
                    self.enforce_cluster_maximum(ctx);
                    self.drain_queue(ctx);
                    self.after_activity(ctx);
                }
                Ok(())
            }
            WarehouseCommand::SetScalingPolicy(policy) => {
                let mut next = self.config.clone();
                next.scaling_policy = policy;
                if policy == ScalingPolicy::Maximized {
                    // Maximized requires min == max; widen min to max.
                    next.min_clusters = next.max_clusters;
                }
                next.validate().map_err(AlterError::InvalidConfig)?;
                self.config = next;
                self.emit_event(ctx, WarehouseEventKind::PolicyChanged, source);
                if matches!(self.state, WarehouseState::Running) {
                    while self.running_clusters() < self.config.min_clusters {
                        self.start_cluster_immediately(ctx);
                    }
                }
                Ok(())
            }
            WarehouseCommand::Suspend => match self.state {
                WarehouseState::Suspended => Err(AlterError::AlreadySuspended),
                WarehouseState::Resuming { .. } | WarehouseState::Running => {
                    if self.running.is_empty() && self.queue.is_empty() {
                        self.suspend_now(ctx, source);
                    } else {
                        self.suspend_when_idle = true;
                    }
                    Ok(())
                }
            },
            WarehouseCommand::Resume => match self.state {
                WarehouseState::Suspended => {
                    self.begin_resume(ctx, source);
                    Ok(())
                }
                _ => Err(AlterError::AlreadyRunning),
            },
        }
    }

    // ---- internals -------------------------------------------------------

    fn begin_resume(&mut self, ctx: &mut WhContext<'_>, _source: ActionSource) {
        debug_assert!(matches!(self.state, WarehouseState::Suspended));
        self.generation += 1;
        let ready_at = ctx.now + RESUME_DELAY_MS;
        self.state = WarehouseState::Resuming { ready_at };
        self.idle_start = None;
        ctx.schedule.push((
            ready_at,
            WhEvent::ResumeDone {
                generation: self.generation,
            },
        ));
    }

    /// Starts a cluster that is immediately running (resume path and
    /// min-cluster enforcement).
    fn start_cluster_immediately(&mut self, ctx: &mut WhContext<'_>) {
        let id = self.next_cluster_id;
        self.next_cluster_id += 1;
        self.clusters
            .push(Cluster::running(id, self.config.size, ctx.now));
        self.emit_event(
            ctx,
            WarehouseEventKind::ClusterStarted,
            ActionSource::System,
        );
        self.schedule_retire_check(ctx, id, ctx.now);
    }

    /// Starts a cluster with the scale-out provisioning delay.
    fn start_cluster_delayed(&mut self, ctx: &mut WhContext<'_>) {
        let id = self.next_cluster_id;
        self.next_cluster_id += 1;
        let ready_at = ctx.now + CLUSTER_START_DELAY_MS;
        self.clusters
            .push(Cluster::starting(id, self.config.size, ready_at));
        ctx.schedule
            .push((ready_at, WhEvent::ClusterReady { cluster_id: id }));
    }

    /// Closes the billing session of cluster at `pos` and removes it.
    fn stop_cluster(&mut self, ctx: &mut WhContext<'_>, pos: usize, source: ActionSource) {
        let cluster = self.clusters.remove(pos);
        if matches!(cluster.state, ClusterState::Running) {
            ctx.ledger.record_session(
                &self.name,
                cluster.session_size,
                cluster.session_start,
                ctx.now,
            );
        }
        self.emit_event(ctx, WarehouseEventKind::ClusterStopped, source);
    }

    fn suspend_now(&mut self, ctx: &mut WhContext<'_>, source: ActionSource) {
        debug_assert!(self.running.is_empty(), "suspending with queries in flight");
        // Close every billing session; discard provisioning clusters.
        while let Some(cluster) = self.clusters.pop() {
            if matches!(cluster.state, ClusterState::Running) {
                ctx.ledger.record_session(
                    &self.name,
                    cluster.session_size,
                    cluster.session_start,
                    ctx.now,
                );
            }
        }
        self.state = WarehouseState::Suspended;
        self.cache.drop_cache();
        self.idle_start = None;
        self.suspend_when_idle = false;
        self.generation += 1;
        self.emit_event(ctx, WarehouseEventKind::Suspended, source);
    }

    fn resize(&mut self, ctx: &mut WhContext<'_>, size: WarehouseSize, source: ActionSource) {
        self.config.size = size;
        if matches!(self.state, WarehouseState::Running) {
            // Close sessions at the old rate and restart at the new one; the
            // fresh clusters start cold.
            for cluster in &mut self.clusters {
                if matches!(cluster.state, ClusterState::Running) {
                    ctx.ledger.record_session(
                        &self.name,
                        cluster.session_size,
                        cluster.session_start,
                        ctx.now,
                    );
                    cluster.session_start = ctx.now;
                    cluster.session_size = size;
                } else {
                    cluster.session_size = size;
                }
            }
            self.cache.drop_cache();
        }
        self.emit_event(ctx, WarehouseEventKind::Resized, source);
    }

    /// Starts queued queries on free slots, FIFO.
    fn drain_queue(&mut self, ctx: &mut WhContext<'_>) {
        if !matches!(self.state, WarehouseState::Running) {
            return;
        }
        while let Some(next) = self.queue.front() {
            let Some(pos) = self.find_free_cluster() else {
                break;
            };
            let spec = next.spec.clone();
            self.queue.pop_front();
            let warm = self.cache.warm_fraction();
            let latency = execution_ms(&spec, self.config.size, warm).round().max(1.0) as SimTime;
            let cluster = &mut self.clusters[pos];
            cluster.begin_query();
            let cluster_id = cluster.id;
            let run_id = self.next_run_id;
            self.next_run_id += 1;
            self.running.insert(
                run_id,
                RunningQuery {
                    spec,
                    cluster_id,
                    start: ctx.now,
                    warm_at_start: warm,
                    latency_ms: latency,
                    size: self.config.size,
                },
            );
            ctx.schedule
                .push((ctx.now + latency, WhEvent::QueryDone { run_id }));
            self.idle_start = None;
        }
    }

    /// Picks the running cluster with a free slot and the fewest running
    /// queries (least-loaded placement, deterministic tie-break by id).
    fn find_free_cluster(&self) -> Option<usize> {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.has_free_slot(self.config.max_concurrency))
            .min_by_key(|(_, c)| (c.running_queries, c.id))
            .map(|(pos, _)| pos)
    }

    /// Scale-out decision per the configured policy.
    fn maybe_scale_out(&mut self, ctx: &mut WhContext<'_>) {
        if !matches!(self.state, WarehouseState::Running) {
            return;
        }
        let total = self.clusters.len() as u32;
        if total >= self.config.max_clusters {
            return;
        }
        if self
            .config
            .scaling_policy
            .should_scale_out(self.queue.len(), self.exec_ewma_ms)
        {
            self.start_cluster_delayed(ctx);
        }
    }

    /// Stops idle clusters above the configured maximum (after the range
    /// shrinks). Busy surplus clusters are retired once their queries drain.
    fn enforce_cluster_maximum(&mut self, ctx: &mut WhContext<'_>) {
        while self.running_clusters() + self.starting_clusters() > self.config.max_clusters {
            if let Some(pos) = self.clusters.iter().position(|c| c.is_idle()) {
                self.stop_cluster(ctx, pos, ActionSource::System);
            } else if let Some(pos) = self
                .clusters
                .iter()
                .position(|c| matches!(c.state, ClusterState::Starting { .. }))
            {
                // Cancel provisioning clusters that are no longer allowed.
                self.clusters.remove(pos);
            } else {
                break; // all surplus clusters are busy; they retire on drain
            }
        }
    }

    /// Common bookkeeping after any state-changing event: idle detection,
    /// deferred suspension, retire scheduling.
    fn after_activity(&mut self, ctx: &mut WhContext<'_>) {
        if !matches!(self.state, WarehouseState::Running) {
            return;
        }
        let fully_idle = self.running.is_empty() && self.queue.is_empty();
        if fully_idle {
            if self.suspend_when_idle {
                self.suspend_now(ctx, ActionSource::Keebo);
                return;
            }
            if self.idle_start.is_none() {
                self.idle_start = Some(ctx.now);
                self.generation += 1;
                if self.config.auto_suspend_ms > 0 {
                    ctx.schedule.push((
                        ctx.now + self.config.auto_suspend_ms,
                        WhEvent::IdleCheck {
                            generation: self.generation,
                        },
                    ));
                }
            }
            // Schedule retirement checks for surplus idle clusters.
            let retire_ms = self.config.scaling_policy.idle_retire_ms();
            if retire_ms != u64::MAX && self.running_clusters() > self.config.min_clusters {
                let ids: Vec<(u32, SimTime)> = self
                    .clusters
                    .iter()
                    .filter_map(|c| c.idle_since.map(|t| (c.id, t)))
                    .collect();
                for (id, idle_since) in ids {
                    self.schedule_retire_check_at(ctx, id, idle_since + retire_ms);
                }
            }
        } else {
            self.idle_start = None;
            // Individual clusters may still be idle while others work.
            let retire_ms = self.config.scaling_policy.idle_retire_ms();
            if retire_ms != u64::MAX && self.running_clusters() > self.config.min_clusters {
                let ids: Vec<(u32, SimTime)> = self
                    .clusters
                    .iter()
                    .filter(|c| c.is_idle())
                    .filter_map(|c| c.idle_since.map(|t| (c.id, t)))
                    .collect();
                for (id, idle_since) in ids {
                    self.schedule_retire_check_at(ctx, id, idle_since + retire_ms);
                }
            }
        }
    }

    fn schedule_retire_check(&mut self, ctx: &mut WhContext<'_>, cluster_id: u32, from: SimTime) {
        let retire_ms = self.config.scaling_policy.idle_retire_ms();
        if retire_ms == u64::MAX {
            return;
        }
        self.schedule_retire_check_at(ctx, cluster_id, from + retire_ms);
    }

    fn schedule_retire_check_at(&mut self, ctx: &mut WhContext<'_>, cluster_id: u32, at: SimTime) {
        ctx.schedule
            .push((at.max(ctx.now), WhEvent::RetireCheck { cluster_id }));
    }

    fn emit_event(&self, ctx: &mut WhContext<'_>, kind: WarehouseEventKind, source: ActionSource) {
        ctx.event_records.push(WarehouseEventRecord {
            warehouse: self.name.clone(),
            at: ctx.now,
            kind,
            source,
            size: self.config.size,
            running_clusters: self.running_clusters(),
            auto_suspend_ms: self.config.auto_suspend_ms,
            min_clusters: self.config.min_clusters,
            max_clusters: self.config.max_clusters,
            scaling_policy: self.config.scaling_policy,
        });
    }
}
