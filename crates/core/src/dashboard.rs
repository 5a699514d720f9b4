//! Dashboard KPIs (§4.1).
//!
//! "The dashboards offer a comprehensive view of various KPIs, with the
//! ability to filter by time and warehouse name, or aggregate daily, weekly
//! or monthly. The KPIs include metrics such as the CDW spend, the savings
//! brought by KWO, query latency and queue times (both average and 99th
//! percentile), and cost per query."
//!
//! This module computes those aggregates from telemetry; rendering is out of
//! scope (the paper's Fig. 2 is a screenshot). Alongside the cost/latency
//! series, [`OpsKpis`] summarizes the control plane's own reliability:
//! actuation outcomes, retries, rollbacks, reconciliations, telemetry
//! outages, and time spent degraded or frozen.

use crate::health::HealthState;
use crate::orchestrator::WarehouseOptimizer;
use cdw_sim::{HourlyCredits, QueryRecord, SimTime, DAY_MS};
use serde::{Deserialize, Serialize};
use telemetry::percentile;

/// One day's KPI row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailyKpis {
    pub day: u64,
    /// Credits billed this day.
    pub spend_credits: f64,
    /// Queries completed this day.
    pub queries: usize,
    pub avg_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub avg_queue_ms: f64,
    pub p99_queue_ms: f64,
    /// Credits per completed query (0 when no queries ran).
    pub cost_per_query: f64,
}

/// Operational / fault KPIs for one managed warehouse — the reliability
/// panel next to the cost charts: is the optimizer healthy, how often did
/// actuation fail, and how much of the time was spent flying blind.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpsKpis {
    /// Current health state.
    pub health: HealthState,
    pub healthy_ticks: u64,
    pub degraded_ticks: u64,
    pub frozen_ticks: u64,
    /// Log entries that applied at least one command.
    pub actions_applied: usize,
    /// Log entries whose command list hit a hard failure.
    pub actions_failed: usize,
    /// Monitoring-ordered rollback entries.
    pub rollbacks: usize,
    /// Reconciler re-drive entries.
    pub reconciliations: usize,
    /// In-line retries of transient ALTER errors.
    pub transient_retries: u64,
    /// Telemetry fetches that failed outright.
    pub fetch_outages: u64,
    /// Telemetry fetches that delivered only a partial batch.
    pub fetch_partials: u64,
    /// Age of the freshest telemetry at collection time.
    pub telemetry_staleness_ms: SimTime,
}

impl OpsKpis {
    /// Snapshot of the reliability KPIs for `optimizer` as of `now`.
    pub fn collect(optimizer: &WarehouseOptimizer, now: SimTime) -> Self {
        let act = optimizer.actuator();
        let fetch = optimizer.fetcher().stats();
        let health = optimizer.health();
        Self {
            health: health.state(),
            healthy_ticks: health.healthy_ticks(),
            degraded_ticks: health.degraded_ticks(),
            frozen_ticks: health.frozen_ticks(),
            actions_applied: act.applied_count(),
            actions_failed: act.failure_count(),
            rollbacks: act.rollback_count(),
            reconciliations: act.reconcile_count(),
            transient_retries: act.transient_retries(),
            fetch_outages: fetch.failed_fetches,
            fetch_partials: fetch.partial_fetches,
            telemetry_staleness_ms: optimizer.fetcher().staleness_ms(now),
        }
    }

    /// Severity rank for fleet rollups: `Healthy < Degraded < Frozen`.
    fn severity(state: HealthState) -> u8 {
        match state {
            HealthState::Healthy => 0,
            HealthState::Degraded(_) => 1,
            HealthState::Frozen => 2,
        }
    }

    /// Folds another warehouse's KPIs into this one: counters add, the
    /// rolled-up health is the *worst* member state, and staleness is the
    /// oldest telemetry anywhere in the group.
    pub fn merge(&mut self, other: &OpsKpis) {
        if Self::severity(other.health) > Self::severity(self.health) {
            self.health = other.health;
        }
        self.healthy_ticks += other.healthy_ticks;
        self.degraded_ticks += other.degraded_ticks;
        self.frozen_ticks += other.frozen_ticks;
        self.actions_applied += other.actions_applied;
        self.actions_failed += other.actions_failed;
        self.rollbacks += other.rollbacks;
        self.reconciliations += other.reconciliations;
        self.transient_retries += other.transient_retries;
        self.fetch_outages += other.fetch_outages;
        self.fetch_partials += other.fetch_partials;
        self.telemetry_staleness_ms = self
            .telemetry_staleness_ms
            .max(other.telemetry_staleness_ms);
    }

    /// Rolls a group of per-warehouse KPI snapshots up into one row (an
    /// all-healthy zero row when the group is empty).
    pub fn rollup<'a>(kpis: impl IntoIterator<Item = &'a OpsKpis>) -> OpsKpis {
        let mut acc = OpsKpis::default();
        for k in kpis {
            acc.merge(k);
        }
        acc
    }
}

/// Computes KPI series from query records and billing history.
#[derive(Debug, Clone, Default)]
pub struct Dashboard;

impl Dashboard {
    /// Daily KPI rows covering `[first_day, last_day]` (days with no
    /// activity get zero rows so charts have no holes).
    pub fn daily(
        records: &[QueryRecord],
        billing: &HourlyCredits,
        from: SimTime,
        to: SimTime,
    ) -> Vec<DailyKpis> {
        assert!(to >= from, "empty KPI window");
        let first_day = from / DAY_MS;
        let last_day = to.div_ceil(DAY_MS).max(first_day + 1);
        let spend_by_day = billing.daily_totals();
        (first_day..last_day)
            .map(|day| {
                let day_start = day * DAY_MS;
                let day_end = day_start + DAY_MS;
                let completed: Vec<&QueryRecord> = records
                    .iter()
                    .filter(|r| (day_start..day_end).contains(&r.end))
                    .collect();
                let lats: Vec<f64> = completed
                    .iter()
                    .map(|r| r.total_latency_ms() as f64)
                    .collect();
                let queues: Vec<f64> = completed.iter().map(|r| r.queued_ms() as f64).collect();
                let spend = spend_by_day.get(&day).copied().unwrap_or(0.0);
                let n = completed.len();
                DailyKpis {
                    day,
                    spend_credits: spend,
                    queries: n,
                    avg_latency_ms: mean(&lats),
                    p99_latency_ms: percentile(&lats, 99.0),
                    avg_queue_ms: mean(&queues),
                    p99_queue_ms: percentile(&queues, 99.0),
                    cost_per_query: if n > 0 { spend / n as f64 } else { 0.0 },
                }
            })
            .collect()
    }

    /// Aggregates daily rows into week buckets (7 sim-days).
    pub fn weekly(daily: &[DailyKpis]) -> Vec<DailyKpis> {
        let mut out: Vec<DailyKpis> = Vec::new();
        for row in daily {
            let week = row.day / 7;
            match out.last_mut() {
                Some(acc) if acc.day == week => {
                    // Latency KPIs combine weighted by query count.
                    let total_q = acc.queries + row.queries;
                    if total_q > 0 {
                        let wa = acc.queries as f64;
                        let wb = row.queries as f64;
                        acc.avg_latency_ms =
                            (acc.avg_latency_ms * wa + row.avg_latency_ms * wb) / total_q as f64;
                        acc.avg_queue_ms =
                            (acc.avg_queue_ms * wa + row.avg_queue_ms * wb) / total_q as f64;
                        acc.p99_latency_ms = acc.p99_latency_ms.max(row.p99_latency_ms);
                        acc.p99_queue_ms = acc.p99_queue_ms.max(row.p99_queue_ms);
                    }
                    acc.spend_credits += row.spend_credits;
                    acc.queries = total_q;
                    acc.cost_per_query = if total_q > 0 {
                        acc.spend_credits / total_q as f64
                    } else {
                        0.0
                    };
                }
                _ => {
                    let mut first = row.clone();
                    first.day = week;
                    out.push(first);
                }
            }
        }
        out
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{WarehouseSize, HOUR_MS};

    fn rec(id: u64, arrival: SimTime, start: SimTime, end: SimTime) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: "WH".into(),
            size: WarehouseSize::Small,
            cluster_count: 1,
            text_hash: id,
            template_hash: 0,
            arrival,
            start,
            end,
            bytes_scanned: 0,
            cache_warm_fraction: 1.0,
        }
    }

    fn kpis(health: HealthState, ticks: u64, staleness: SimTime) -> OpsKpis {
        OpsKpis {
            health,
            healthy_ticks: ticks,
            degraded_ticks: ticks / 2,
            frozen_ticks: ticks / 4,
            actions_applied: ticks as usize + 1,
            actions_failed: ticks as usize % 3,
            rollbacks: ticks as usize % 2,
            reconciliations: ticks as usize % 5,
            transient_retries: ticks % 7,
            fetch_outages: ticks % 4,
            fetch_partials: ticks % 6,
            telemetry_staleness_ms: staleness,
        }
    }

    #[test]
    fn rollup_of_empty_group_is_all_healthy_zero_row() {
        let rolled = OpsKpis::rollup([]);
        assert_eq!(rolled.health, HealthState::Healthy);
        assert_eq!(rolled.healthy_ticks, 0);
        assert_eq!(rolled.actions_applied, 0);
        assert_eq!(rolled.telemetry_staleness_ms, 0);
    }

    #[test]
    fn rollup_of_single_element_is_identity() {
        let one = kpis(
            HealthState::Degraded(crate::health::DegradeReason::StaleTelemetry),
            9,
            1234,
        );
        let rolled = OpsKpis::rollup([&one]);
        assert_eq!(rolled, one);
    }

    #[test]
    fn merge_keeps_worst_health_in_both_directions() {
        use crate::health::DegradeReason;
        let healthy = kpis(HealthState::Healthy, 1, 0);
        let degraded = kpis(HealthState::Degraded(DegradeReason::ConfigDrift), 1, 0);
        let frozen = kpis(HealthState::Frozen, 1, 0);

        // Worse absorbs into better...
        let mut acc = healthy.clone();
        acc.merge(&degraded);
        assert_eq!(acc.health, degraded.health);
        acc.merge(&frozen);
        assert_eq!(acc.health, HealthState::Frozen);
        // ...and better never downgrades worse.
        let mut acc = frozen.clone();
        acc.merge(&healthy);
        assert_eq!(acc.health, HealthState::Frozen);
        let mut acc = degraded.clone();
        acc.merge(&healthy);
        assert_eq!(acc.health, degraded.health);
    }

    #[test]
    fn rollup_is_order_independent() {
        use crate::health::DegradeReason;
        let members = [
            kpis(HealthState::Healthy, 3, 100),
            kpis(HealthState::Frozen, 5, 900),
            kpis(
                HealthState::Degraded(DegradeReason::ActuationFailures),
                7,
                400,
            ),
        ];
        let forward = OpsKpis::rollup(members.iter());
        let reverse = OpsKpis::rollup(members.iter().rev());
        assert_eq!(forward, reverse);
        assert_eq!(forward.health, HealthState::Frozen);
        assert_eq!(forward.healthy_ticks, 15);
        assert_eq!(forward.telemetry_staleness_ms, 900);
    }

    #[test]
    fn daily_rows_cover_the_window_without_holes() {
        let rows = Dashboard::daily(&[], &HourlyCredits::new(), 0, 3 * DAY_MS);
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| r.queries == 0 && r.spend_credits == 0.0));
    }

    #[test]
    fn spend_and_cost_per_query_line_up() {
        let mut billing = HourlyCredits::new();
        billing.add(2 * HOUR_MS, 6.0);
        let records = vec![
            rec(1, HOUR_MS, HOUR_MS, HOUR_MS + 1_000),
            rec(2, HOUR_MS, HOUR_MS, HOUR_MS + 3_000),
            rec(3, HOUR_MS, HOUR_MS + 2_000, HOUR_MS + 4_000),
        ];
        let rows = Dashboard::daily(&records, &billing, 0, DAY_MS);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.queries, 3);
        assert_eq!(r.spend_credits, 6.0);
        assert_eq!(r.cost_per_query, 2.0);
        assert_eq!(r.p99_latency_ms, 4_000.0);
        assert!((r.avg_queue_ms - 2_000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn queries_attribute_to_completion_day() {
        let records = vec![rec(1, DAY_MS - 1_000, DAY_MS - 1_000, DAY_MS + 1_000)];
        let rows = Dashboard::daily(&records, &HourlyCredits::new(), 0, 2 * DAY_MS);
        assert_eq!(rows[0].queries, 0);
        assert_eq!(rows[1].queries, 1);
    }

    #[test]
    fn weekly_rollup_sums_spend_and_weights_latency() {
        let daily: Vec<DailyKpis> = (0..14)
            .map(|day| DailyKpis {
                day,
                spend_credits: 1.0,
                queries: 10,
                avg_latency_ms: if day < 7 { 100.0 } else { 200.0 },
                p99_latency_ms: day as f64,
                avg_queue_ms: 0.0,
                p99_queue_ms: 0.0,
                cost_per_query: 0.1,
            })
            .collect();
        let weekly = Dashboard::weekly(&daily);
        assert_eq!(weekly.len(), 2);
        assert_eq!(weekly[0].spend_credits, 7.0);
        assert_eq!(weekly[0].queries, 70);
        assert!((weekly[0].avg_latency_ms - 100.0).abs() < 1e-9);
        assert!((weekly[1].avg_latency_ms - 200.0).abs() < 1e-9);
        assert_eq!(weekly[1].p99_latency_ms, 13.0, "p99 is the weekly max");
    }
}
