//! Scenario helpers for metamorphic relations.
//!
//! A metamorphic relation transforms a workload in a way with a known
//! effect on cost or latency (shift time → identical bill; add load →
//! queue waits cannot shrink; …) and checks the simulator honors it. The
//! relations themselves live in `tests/metamorphic.rs`; this module holds
//! the shared scenario runner so tests and the fuzz bin stay thin.
//!
//! Two relations from the obvious folklore list are *false* in a simulator
//! with caches and billing minimums, and are deliberately tested only on
//! conditioned workload families (see DESIGN.md "Verification"):
//!
//! * "Raising auto-suspend never decreases credits" fails in general: a
//!   longer timeout keeps the cache warm (queries run faster, sessions end
//!   sooner) and merges short sessions (two 60 s minimums can cost more
//!   than one merged ~90 s session). It holds for cache-insensitive
//!   workloads whose busy periods exceed the 60 s minimum.
//! * "Queue waits are monotone under added load" fails in general: an
//!   added early query can pay the resume delay that a later query would
//!   otherwise have paid, and cache warming from added work speeds
//!   everyone up. It holds for cache-insensitive single-cluster workloads
//!   on a warehouse that is already running and never suspends.

use cdw_sim::{
    Account, ActionSource, HourlyCredits, QuerySpec, SimTime, Simulator, WarehouseCommand,
    WarehouseConfig,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Everything a metamorphic relation compares between two runs.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Closed-session credits for the warehouse.
    pub total_credits: f64,
    /// Hourly buckets for the warehouse.
    pub hourly: HourlyCredits,
    /// Highest concurrent running-cluster count observed at any event.
    pub peak_clusters: u32,
    /// (query id, queued ms) for every completed query.
    pub queue_waits: Vec<(u64, SimTime)>,
    /// Completed query count.
    pub completed: usize,
}

/// Runs one warehouse named `M` through `queries`, then suspends it and
/// drains so every billing session closes. `resume_at_start` issues an
/// explicit `Resume` at t=0 (used by relations that must exclude resume
/// timing from the comparison).
pub fn run_scenario(
    config: WarehouseConfig,
    queries: &[QuerySpec],
    horizon: SimTime,
    resume_at_start: bool,
) -> ScenarioResult {
    let mut acc = Account::new();
    let wh = acc.create_warehouse("M", config);
    let mut sim = Simulator::new(acc);
    // Atomic rather than Cell: the hook slot is `Send` (shards migrate
    // across fleet pool workers); this scenario itself is single-threaded.
    let peak: Arc<AtomicU32> = Arc::default();
    let sink = Arc::clone(&peak);
    sim.set_post_event_hook(move |account, _| {
        for id in account.warehouse_ids() {
            let running = account.warehouse(id).running_clusters();
            // lint: allow(D11) — peak tracker in a single-threaded scenario; nothing synchronizes on it
            sink.fetch_max(running, Ordering::Relaxed);
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "verification harness must abort loudly on a broken premise"
    )]
    if resume_at_start {
        sim.alter_warehouse(wh, WarehouseCommand::Resume, ActionSource::External)
            .expect("resume from suspended");
    }
    for q in queries {
        sim.submit_query(wh, q.clone());
    }
    sim.run_until(horizon);
    let _ = sim.alter_warehouse(wh, WarehouseCommand::Suspend, ActionSource::External);
    sim.run_to_completion();

    let account = sim.account();
    let hourly = account.ledger().warehouse("M");
    let mut queue_waits: Vec<(u64, SimTime)> = account
        .query_records()
        .iter()
        .map(|r| (r.query_id, r.start - r.arrival))
        .collect();
    queue_waits.sort_unstable();
    ScenarioResult {
        total_credits: hourly.total(),
        hourly,
        // lint: allow(D11) — reading the single-threaded peak tracker back out
        peak_clusters: peak.load(Ordering::Relaxed),
        queue_waits,
        completed: account.query_records().len(),
    }
}

/// Shifts every query's arrival by `offset_ms`, keeping ids and work.
pub fn shift_queries(queries: &[QuerySpec], offset_ms: SimTime) -> Vec<QuerySpec> {
    queries
        .iter()
        .map(|q| {
            let mut s = q.clone();
            s.arrival += offset_ms;
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{WarehouseSize, HOUR_MS};

    #[test]
    fn scenario_runner_closes_all_sessions() {
        let queries: Vec<QuerySpec> = (0..5)
            .map(|i| {
                QuerySpec::builder(i)
                    .work_ms_xs(20_000.0)
                    .arrival_ms(i * 60_000)
                    .build()
            })
            .collect();
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(600);
        let r = run_scenario(cfg, &queries, HOUR_MS, false);
        assert_eq!(r.completed, 5);
        assert!(r.total_credits > 0.0);
        assert!(r.peak_clusters >= 1);
        assert_eq!(r.queue_waits.len(), 5);
    }
}
