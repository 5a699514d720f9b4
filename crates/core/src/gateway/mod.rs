//! Serving gateway: deterministic multi-tenant admission and dispatch.
//!
//! The paper's KWO is a *service*: customers submit queries, move sliders,
//! edit constraints, and read decision traces against a shared control
//! plane that optimizes many tenants at once. This module is that front
//! door for the simulated fleet. Clients call [`Gateway::submit`] and get a
//! synchronous [`Admission`]; admitted requests execute on the next control
//! tick, which drives every tenant shard concurrently through the fleet's
//! [`WorkerPool`].
//!
//! Admission control (all per tenant, all deterministic):
//!
//! * **rate limiting** — a token bucket refilled per control tick
//!   (`limiter.rs`), never from a wall clock;
//! * **quotas** — a run-long cap on admitted requests;
//! * **backpressure** — bounded per-priority FIFO queues (`queue.rs`);
//!   when a class is full the arriving request is shed with
//!   [`ShedReason::QueueFull`], never buffered unboundedly;
//! * **priority** — interactive drains ahead of batch, with reserved
//!   batch slots as starvation protection.
//!
//! # Determinism
//!
//! The crown jewel invariant of this repo — bit-identical results at any
//! thread count — extends through the gateway:
//!
//! * admission decisions happen in [`Gateway::submit`] call order on the
//!   caller's thread; worker threads never influence them;
//! * each tick drains per-tenant batches by (priority class, admission
//!   seq) and hands shard `i` exactly its own batch; shards only touch
//!   their own state, and [`WorkerPool::map`] hands the per-shard response
//!   fingerprints back in spec order, where they fold after the barrier;
//! * query specs dispatched into a shard get ids and arrivals derived
//!   from the admission seq and the shard's virtual clock.
//!
//! So [`FleetReport::digest`], the decision digest, and the response
//! digest are all invariant across `parallelism` — pinned by
//! `tests/gateway.rs` under open-loop and closed-loop load.

mod limiter;
mod queue;
mod request;

pub use limiter::TokenBucket;
pub use request::{Admission, Priority, Request, RequestKind, ShedReason};

use crate::fleet::{build_shard, fleet_rollup, tenant_report, FleetShard, Fnv};
use crate::fleet::{FleetReport, TenantSpec};
use crate::pool::WorkerPool;
use cdw_sim::SimTime;
use queue::{AdmissionQueue, Ticket};
use std::collections::BTreeMap;

/// Query ids minted by the gateway start here so they can never collide
/// with trace-generator ids (workload generators count up from 0).
const GATEWAY_QUERY_ID_BASE: u64 = 1_000_000_000;

/// Histogram buckets for admission wall latency (microseconds).
const ADMIT_US_BUCKETS: [f64; 7] = [1.0, 5.0, 10.0, 50.0, 100.0, 1_000.0, 10_000.0];

/// Gateway tuning. Every knob is in virtual-tick units; nothing reads a
/// wall clock, so one config + one request sequence = one outcome.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Virtual time each control tick advances every shard.
    pub tick_ms: SimTime,
    /// Token-bucket burst size per tenant.
    pub bucket_capacity: f64,
    /// Tokens returned to each tenant's bucket per tick.
    pub refill_per_tick: f64,
    /// Run-long admitted-request cap per tenant.
    pub quota: u64,
    /// Bound on each per-priority FIFO (per tenant).
    pub queue_capacity: usize,
    /// Dispatch slots per tenant per tick.
    pub batch_per_tenant: usize,
    /// Of those, slots guaranteed to the batch class while it has work.
    pub reserved_batch_slots: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            tick_ms: 30 * cdw_sim::MINUTE_MS,
            bucket_capacity: 8.0,
            refill_per_tick: 4.0,
            quota: 10_000,
            queue_capacity: 16,
            batch_per_tenant: 4,
            reserved_batch_slots: 1,
        }
    }
}

/// Per-reason shed counts (also exported as `keebo.gateway.shed.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedCounts {
    pub unknown_tenant: u64,
    pub rate_limited: u64,
    pub quota_exhausted: u64,
    pub queue_full: u64,
}

impl ShedCounts {
    fn bump(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::UnknownTenant => self.unknown_tenant += 1,
            ShedReason::RateLimited => self.rate_limited += 1,
            ShedReason::QuotaExhausted => self.quota_exhausted += 1,
            ShedReason::QueueFull => self.queue_full += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.unknown_tenant + self.rate_limited + self.quota_exhausted + self.queue_full
    }
}

/// Everything the gateway measured over one run, all of it deterministic:
/// counts, digests and virtual-tick wait samples. (Wall-clock admission
/// latency goes to the `keebo.gateway.admission_wait_us` histogram only.)
#[derive(Debug, Clone, Default)]
pub struct GatewayStats {
    /// Requests admitted (dense seq space: `0..admitted`).
    pub admitted: u64,
    pub shed: ShedCounts,
    /// Tickets dispatched into shards, per priority class.
    pub dispatched_interactive: u64,
    pub dispatched_batch: u64,
    /// Control ticks executed.
    pub ticks: u64,
    /// Order-sensitive fingerprint of every admission decision.
    pub decisions_digest: u64,
    /// Spec-order fold of per-shard dispatch/response fingerprints.
    pub responses_digest: u64,
    /// Queue wait in whole ticks for each dispatched ticket, per class
    /// (deterministic; the priority-inversion test bounds the
    /// interactive distribution).
    pub wait_ticks_interactive: Vec<f64>,
    /// See [`GatewayStats::wait_ticks_interactive`].
    pub wait_ticks_batch: Vec<f64>,
}

/// The admission/dispatch front door for one simulated fleet. See the
/// module docs for the protocol and determinism contract.
pub struct Gateway {
    config: GatewayConfig,
    seed: u64,
    tenants: Vec<TenantSpec>,
    /// Tenant name → spec index (BTreeMap: deterministic iteration).
    index: BTreeMap<String, usize>,
    /// One shard per tenant, in spec order; empty until [`Gateway::start`].
    shards: Vec<FleetShard>,
    meters: Vec<limiter::TenantMeter>,
    queues: Vec<AdmissionQueue>,
    next_seq: u64,
    observe_until: SimTime,
    /// Virtual fleet clock: every shard has been driven to here.
    now: SimTime,
    started: bool,
    decisions: Fnv,
    responses: Fnv,
    stats: GatewayStats,
}

impl Gateway {
    /// A gateway over `tenants` with the given fleet seed. Shards are not
    /// built until [`Gateway::start`].
    pub fn new(seed: u64, config: GatewayConfig, tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "gateway needs at least one tenant");
        assert!(config.tick_ms > 0, "tick must advance virtual time");
        assert!(
            config.reserved_batch_slots <= config.batch_per_tenant,
            "cannot reserve more slots than the batch size"
        );
        let index: BTreeMap<String, usize> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), i))
            .collect();
        assert!(index.len() == tenants.len(), "tenant names must be unique");
        let meters = tenants
            .iter()
            .map(|_| {
                limiter::TenantMeter::new(
                    TokenBucket::new(config.bucket_capacity, config.refill_per_tick),
                    config.quota,
                )
            })
            .collect();
        let queues = tenants.iter().map(|_| AdmissionQueue::default()).collect();
        Self {
            config,
            seed,
            tenants,
            index,
            shards: Vec::new(),
            meters,
            queues,
            next_seq: 0,
            observe_until: 0,
            now: 0,
            started: false,
            decisions: Fnv::new(),
            responses: Fnv::new(),
            stats: GatewayStats::default(),
        }
    }

    /// Builds every tenant shard on the pool, observes the workload until
    /// `observe_until`, and onboards the optimizers. After this the
    /// gateway accepts requests; the fleet clock sits at `observe_until`.
    pub fn start(&mut self, pool: &WorkerPool, parallelism: usize, observe_until: SimTime) {
        assert!(!self.started, "gateway already started");
        self.started = true;
        self.observe_until = observe_until;
        self.now = observe_until;
        let seed = self.seed;
        self.shards = pool.map(self.tenants.iter().collect(), parallelism, |_, tenant| {
            let mut shard = build_shard(seed, tenant);
            shard.kwo.observe_until(&mut shard.sim, observe_until);
            shard.kwo.onboard(&mut shard.sim);
            shard
        });
    }

    /// Admits or sheds one request, synchronously and deterministically.
    /// Decisions depend only on the request sequence and the config —
    /// never on worker threads or wall time.
    ///
    /// # Panics
    /// Panics if called before [`Gateway::start`].
    pub fn submit(&mut self, request: Request) -> Admission {
        assert!(self.started, "submit before start");
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time only feeds the admission-latency histogram, never a decision"
        )]
        let t0 = std::time::Instant::now();
        let decision = self.admit(request);
        let reg = keebo_obs::global();
        reg.histogram("keebo.gateway.admission_wait_us", &ADMIT_US_BUCKETS)
            .observe(t0.elapsed().as_secs_f64() * 1e6);
        match decision {
            Admission::Admitted { .. } => reg.counter("keebo.gateway.admitted").inc(),
            Admission::Shed { reason } => {
                let name = match reason {
                    ShedReason::UnknownTenant => "keebo.gateway.shed.unknown_tenant",
                    ShedReason::RateLimited => "keebo.gateway.shed.rate_limited",
                    ShedReason::QuotaExhausted => "keebo.gateway.shed.quota_exhausted",
                    ShedReason::QueueFull => "keebo.gateway.shed.queue_full",
                };
                reg.counter(name).inc();
            }
        }
        reg.gauge("keebo.gateway.queue_depth")
            .set(self.queue_depth() as f64);
        decision
    }

    fn admit(&mut self, request: Request) -> Admission {
        let shape_code = request.priority.code() << 2 | request.kind.code();
        // Backpressure first: a request the bounded queue would refuse
        // anyway must not burn a token or quota.
        let decision = match self.index.get(&request.tenant) {
            None => Err(ShedReason::UnknownTenant),
            Some(&i) => {
                if !self.queues[i].has_room(request.priority, self.config.queue_capacity) {
                    Err(ShedReason::QueueFull)
                } else {
                    self.meters[i].try_admit().map(|()| i)
                }
            }
        };
        self.decisions.eat_str(&request.tenant);
        self.decisions.eat(shape_code);
        match decision {
            Ok(i) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let ticket = Ticket {
                    seq,
                    enq_tick: self.stats.ticks,
                    priority: request.priority,
                    kind: request.kind,
                };
                self.queues[i].push(ticket);
                self.stats.admitted += 1;
                self.decisions.eat(0);
                self.decisions.eat(seq);
                Admission::Admitted { seq }
            }
            Err(reason) => {
                self.stats.shed.bump(reason);
                self.decisions.eat(reason.code());
                Admission::Shed { reason }
            }
        }
    }

    /// Tickets currently queued across all tenants.
    pub fn queue_depth(&self) -> usize {
        self.queues.iter().map(AdmissionQueue::depth).sum()
    }

    /// Virtual fleet time (every shard has been driven to here).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs one control tick: refills every meter, drains each tenant's
    /// deterministic dispatch batch, applies the batches shard-locally on
    /// the pool, and advances every shard `tick_ms` of virtual time.
    ///
    /// # Panics
    /// Panics if called before [`Gateway::start`], and re-raises shard
    /// panics from the pool.
    pub fn tick(&mut self, pool: &WorkerPool, parallelism: usize) {
        assert!(self.started, "tick before start");
        for m in &mut self.meters {
            m.refill();
        }
        let tick_no = self.stats.ticks;
        let mut batches: Vec<Vec<Ticket>> = Vec::with_capacity(self.queues.len());
        for q in &mut self.queues {
            let batch = q.drain(
                self.config.batch_per_tenant,
                self.config.reserved_batch_slots,
            );
            for t in &batch {
                let wait = (tick_no - t.enq_tick) as f64;
                match t.priority {
                    Priority::Interactive => {
                        self.stats.dispatched_interactive += 1;
                        self.stats.wait_ticks_interactive.push(wait);
                    }
                    Priority::Batch => {
                        self.stats.dispatched_batch += 1;
                        self.stats.wait_ticks_batch.push(wait);
                    }
                }
                let name = match t.priority {
                    Priority::Interactive => "keebo.gateway.dispatched.interactive",
                    Priority::Batch => "keebo.gateway.dispatched.batch",
                };
                keebo_obs::global().counter(name).inc();
            }
            batches.push(batch);
        }
        keebo_obs::global()
            .gauge("keebo.gateway.queue_depth")
            .set(self.queue_depth() as f64);

        let target = self.now + self.config.tick_ms;
        let work = self.shards.iter_mut().zip(batches).collect();
        let fingerprints = pool.map(work, parallelism, |_, (shard, batch)| {
            apply_batch(shard, batch, target)
        });

        // Fold per-shard fingerprints in spec order — identical at any
        // parallelism because each value depends only on its own shard.
        for fingerprint in fingerprints {
            self.responses.eat(fingerprint);
        }
        self.now = target;
        self.stats.ticks += 1;
    }

    /// Finishes the run: rolls every shard up into its tenant report (on
    /// the pool), returning the fleet report plus the gateway's stats.
    /// The savings window is `[observe_until, now)`.
    ///
    /// # Panics
    /// Panics if called before [`Gateway::start`].
    pub fn finish(mut self, pool: &WorkerPool, parallelism: usize) -> (FleetReport, GatewayStats) {
        assert!(self.started, "finish before start");
        let (window_start, window_end) = (self.observe_until, self.now);
        let work = self.shards.into_iter().zip(&self.tenants).collect();
        let tenant_reports = pool.map(work, parallelism, |_, (shard, tenant)| {
            tenant_report(&shard, &tenant.name, window_start, window_end)
        });
        self.stats.decisions_digest = self.decisions.finish();
        self.stats.responses_digest = self.responses.finish();
        (fleet_rollup(tenant_reports), self.stats)
    }
}

/// Applies one tenant's dispatch batch inside its shard, then advances the
/// shard to `target`. Returns the shard's fingerprint for this tick:
/// every applied ticket and every read response, folded in batch order.
/// Pure shard-local computation — parallelism cannot perturb it.
fn apply_batch(shard: &mut FleetShard, batch: Vec<Ticket>, target: SimTime) -> u64 {
    let mut h = Fnv::new();
    for t in batch {
        h.eat(t.seq);
        h.eat(t.kind.code());
        match t.kind {
            RequestKind::SubmitQuery {
                warehouse,
                mut spec,
            } => {
                match shard.sim.account().warehouse_id(&warehouse) {
                    Some(wh) => {
                        spec.id = GATEWAY_QUERY_ID_BASE + t.seq;
                        // Next millisecond after the shard's clock: always
                        // in the future, ordered by admission seq within
                        // the tick (the simulator breaks arrival ties by
                        // submission sequence).
                        spec.arrival = shard.sim.now() + 1;
                        shard.sim.submit_query(wh, spec);
                        h.eat(1);
                    }
                    None => h.eat(0),
                }
            }
            RequestKind::SetSlider { warehouse, slider } => {
                h.eat(slider as u64);
                shard.kwo.set_slider(&warehouse, slider);
            }
            RequestKind::EditConstraint { warehouse, rule } => {
                h.eat_str(&rule.name);
                // Only a refused rule folds a mark, so accepted edits keep
                // the fingerprint they always had.
                if shard.kwo.add_constraint(&warehouse, rule).is_err() {
                    h.eat(u64::MAX);
                }
            }
            RequestKind::TraceQuery { warehouse } => {
                let events = shard.kwo.optimizer(&warehouse).map_or(0, |o| o.trace_len());
                h.eat(events as u64);
            }
        }
    }
    shard.kwo.run_until(&mut shard.sim, target);
    h.eat(shard.sim.now());
    h.finish()
}
