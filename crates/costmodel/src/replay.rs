//! The what-if query replay (§5.1).
//!
//! The replay "conceptually replays the queries in the workload" under the
//! customer's **original** configuration to estimate the without-Keebo cost:
//!
//! 1. every observed query's execution time is rescaled to the original
//!    warehouse size with the learned [`LatencyScaler`];
//! 2. dependent queries are re-anchored to their predecessor's *replayed*
//!    completion via the [`GapModel`] (gaps are workload structure, not an
//!    artifact of sizing);
//! 3. queries are scheduled onto the original capacity (max clusters ×
//!    per-cluster concurrency) with a greedy slot simulation;
//! 4. warehouse-active periods are reconstructed — inclusive of idle gaps up
//!    to the original auto-suspend interval, which bill in full before the
//!    warehouse would have shut down;
//! 5. active seconds are priced per mini-window at the original size's
//!    credit rate times the [`ClusterPredictor`]'s cluster count, with the
//!    60-second session minimum applied per resume cycle.

use crate::clusters::{ClusterPredictor, MINI_WINDOW_MS};
use crate::gaps::GapModel;
use crate::latency::LatencyScaler;
use cdw_sim::billing::{exact_f64, sim_time_from_f64, span_ms};
use cdw_sim::{HourlyCredits, QueryRecord, SimTime, WarehouseConfig};
use keebo_obs::Histogram;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Distribution of per-query latency rescale deltas (|replayed − observed|
/// execution ms). Large mass in the high buckets means the latency scaler
/// is extrapolating far from the observed size. Observability only.
fn rescale_delta_histogram() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        keebo_obs::global().histogram(
            "costmodel.replay.rescale_delta_ms",
            &[0.0, 10.0, 100.0, 1_000.0, 10_000.0, 60_000.0],
        )
    })
}

/// Inputs to one replay: the configuration to replay *under* (the customer's
/// original, without-Keebo settings) and the window of history to replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// The customer's original configuration (pre-Keebo).
    pub original: WarehouseConfig,
    /// Replay window start (queries are selected by arrival time).
    pub window_start: SimTime,
    /// Replay window end.
    pub window_end: SimTime,
}

/// Result of one replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Estimated without-Keebo credits for the window.
    pub estimated_credits: f64,
    /// Estimated credits per hour bucket.
    pub hourly: HourlyCredits,
    /// Total warehouse-active milliseconds (single-cluster-equivalent).
    pub active_ms: SimTime,
    /// Resume/suspend cycles in the reconstruction.
    pub sessions: usize,
    /// Queries replayed.
    pub replayed_queries: usize,
}

/// The full warehouse cost model: replay + the three learned parameter
/// estimators.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarehouseCostModel {
    pub latency: LatencyScaler,
    pub gaps: GapModel,
    pub clusters: ClusterPredictor,
}

impl WarehouseCostModel {
    /// Calibrates all parameter models from query history gathered in
    /// `[start, end)` under a configuration with the given concurrency and
    /// cluster limits (§5.2).
    pub fn train(
        records: &[QueryRecord],
        start: SimTime,
        end: SimTime,
        max_concurrency: u32,
        max_clusters: u32,
    ) -> Self {
        Self {
            latency: LatencyScaler::train(records),
            gaps: GapModel::train(records),
            clusters: ClusterPredictor::train(records, start, end, max_concurrency, max_clusters),
        }
    }

    /// Replays `records` under `cfg.original`, returning the estimated
    /// without-Keebo cost. `records` may be a superset; arrival-time
    /// filtering happens here.
    pub fn replay(&self, records: &[QueryRecord], cfg: &ReplayConfig) -> ReplayOutcome {
        let original = &cfg.original;
        debug_assert!(original.validate().is_ok(), "invalid original config");
        keebo_obs::global().counter("costmodel.replay.runs").inc();

        // 1+2: rescale latencies and re-anchor dependent arrivals.
        let mut selected: Vec<&QueryRecord> = records
            .iter()
            .filter(|r| (cfg.window_start..cfg.window_end).contains(&r.arrival))
            .collect();
        selected.sort_by_key(|r| (r.arrival, r.query_id));

        let mut items: Vec<(SimTime, SimTime)> = Vec::with_capacity(selected.len()); // (arrival, exec)
        let mut observed_max_end: Option<SimTime> = None;
        let mut replayed_max_end: Option<SimTime> = None;
        for r in &selected {
            let exec = sim_time_from_f64(
                self.latency
                    .scale_execution_ms(
                        r.template_hash,
                        exact_f64(r.execution_ms().max(1)),
                        r.size,
                        original.size,
                    )
                    .round()
                    .max(1.0),
            );
            rescale_delta_histogram()
                .observe((exact_f64(exec) - exact_f64(r.execution_ms())).abs());
            let arrival = match (observed_max_end, replayed_max_end) {
                (Some(obs_end), Some(rep_end)) => {
                    match self.gaps.dependent_gap(r.arrival, obs_end) {
                        Some(gap) => rep_end + gap,
                        None => r.arrival,
                    }
                }
                _ => r.arrival,
            };
            observed_max_end = Some(observed_max_end.map_or(r.end, |m| m.max(r.end)));
            replayed_max_end =
                Some(replayed_max_end.map_or(arrival + exec, |m| m.max(arrival + exec)));
            items.push((arrival, exec));
        }
        items.sort_unstable();

        // 3: greedy slot scheduling at the original capacity.
        let capacity =
            (u64::from(original.max_clusters) * u64::from(original.max_concurrency)).max(1);
        let mut slots: BinaryHeap<Reverse<SimTime>> = (0..capacity).map(|_| Reverse(0)).collect();
        let mut intervals: Vec<(SimTime, SimTime)> = Vec::with_capacity(items.len());
        for (arrival, exec) in items {
            let free = slots.pop().map_or(0, |Reverse(f)| f);
            let start = arrival.max(free);
            let end = start + exec;
            slots.push(Reverse(end));
            intervals.push((start, end));
        }
        intervals.sort_unstable();

        if intervals.is_empty() {
            return ReplayOutcome {
                estimated_credits: 0.0,
                hourly: HourlyCredits::new(),
                active_ms: 0,
                sessions: 0,
                replayed_queries: 0,
            };
        }

        // Per-mini-window demand, for cluster prediction during pricing.
        let horizon = intervals.iter().map(|&(_, e)| e).max().unwrap_or(0);
        let first = intervals.first().map_or(0, |&(s, _)| s);
        // A re-anchored dependent arrival can in principle land before the
        // window origin (gap model quirks); guard the subtraction so release
        // builds clamp to window 0 instead of wrapping SimTime.
        let window_origin = first.min(cfg.window_start);
        let window_index = move |t: SimTime| {
            debug_assert!(
                t >= window_origin,
                "replay time {t} precedes window origin {window_origin}"
            );
            t.saturating_sub(window_origin) / MINI_WINDOW_MS
        };
        #[expect(
            clippy::as_conversions,
            reason = "u64→usize is lossless on every supported target"
        )]
        let window_of = move |t: SimTime| window_index(t) as usize;
        // End of the mini-window holding `t`.
        let window_end = move |t: SimTime| window_origin + (window_index(t) + 1) * MINI_WINDOW_MS;
        let n_windows = window_of(horizon) + 1;
        let mut busy_ms = vec![0f64; n_windows];
        let mut arrivals = vec![0f64; n_windows];
        // Union span of activity within each window — concurrency is demand
        // *while active*, so a one-minute burst inside a five-minute window
        // must not be diluted by the idle four minutes.
        let mut span: Vec<(SimTime, SimTime)> = vec![(SimTime::MAX, 0); n_windows];
        for &(s, e) in &intervals {
            arrivals[window_of(s)] += 1.0;
            let mut t = s;
            while t < e {
                let w = window_of(t);
                let w_end = window_end(t);
                let slice_end = e.min(w_end);
                busy_ms[w] += exact_f64(span_ms(t, slice_end));
                span[w].0 = span[w].0.min(t);
                span[w].1 = span[w].1.max(slice_end);
                t = slice_end;
            }
        }
        let clusters_at = |t: SimTime| -> f64 {
            let w = window_of(t).min(n_windows - 1);
            let (lo, hi) = span[w];
            let active_ms = if hi > lo { exact_f64(hi - lo) } else { 0.0 };
            let concurrency = if active_ms > 0.0 {
                busy_ms[w] / active_ms
            } else {
                0.0
            };
            self.clusters.predict(
                concurrency,
                arrivals[w] * 3_600_000.0 / exact_f64(MINI_WINDOW_MS),
                original.max_concurrency,
                original.max_clusters,
            )
        };

        // 4: merge into active periods, then extend by billable idle gaps.
        let mut active: Vec<(SimTime, SimTime)> = Vec::new();
        for (s, e) in intervals.iter().copied() {
            match active.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => active.push((s, e)),
            }
        }
        // Sessions: consecutive active periods whose gap is within the
        // original auto-suspend stay in one billing session (idle time bills);
        // larger gaps bill auto_suspend of idle and then break the session.
        // Note: auto_suspend 0 disables suspension, so every gap bills in
        // full and the reconstruction is one continuous session ending at
        // the last activity (we do not extrapolate an always-on warehouse
        // beyond its last observed work).
        let auto = original.auto_suspend_ms;
        let mut sessions: Vec<(SimTime, SimTime)> = Vec::new();
        for (s, e) in active {
            match sessions.last_mut() {
                // Gap bills in full (warehouse stayed up through it).
                Some(last) if auto == 0 || s <= last.1 + auto => last.1 = last.1.max(e),
                last => {
                    if let Some(last) = last {
                        // Suspend after the auto-suspend tail, then a new session.
                        last.1 += auto;
                    }
                    sessions.push((s, e));
                }
            }
        }
        if auto > 0 {
            if let Some((_, sess_end)) = sessions.last_mut() {
                *sess_end += auto; // trailing idle before the final suspend
            }
        }

        // 5: price each session per mini-window slice.
        let rate_per_ms = original.size.credits_per_second() / 1_000.0;
        let mut hourly = HourlyCredits::new();
        let mut total_active: SimTime = 0;
        for &(s, e) in &sessions {
            total_active += e - s;
            let mut t = s;
            while t < e {
                let w_end = window_end(t);
                let slice_end = e.min(w_end);
                let credits = exact_f64(span_ms(t, slice_end)) * rate_per_ms * clusters_at(t);
                hourly.add(t, credits);
                t = slice_end;
            }
            // 60-second minimum per session (per running cluster at start).
            let dur = e - s;
            if dur < 60_000 {
                let topup = exact_f64(60_000 - dur) * rate_per_ms * clusters_at(s);
                hourly.add(s, topup);
            }
        }

        ReplayOutcome {
            estimated_credits: hourly.total(),
            hourly,
            active_ms: total_active,
            sessions: sessions.len(),
            replayed_queries: selected.len(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::as_conversions)]
mod tests {
    use super::*;
    use cdw_sim::{WarehouseSize, HOUR_MS, MINUTE_MS, SECOND_MS};

    fn rec(id: u64, arrival: SimTime, exec_ms: SimTime, size: WarehouseSize) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: "WH".into(),
            size,
            cluster_count: 1,
            text_hash: id,
            template_hash: 1,
            arrival,
            start: arrival,
            end: arrival + exec_ms,
            bytes_scanned: 0,
            cache_warm_fraction: 1.0,
        }
    }

    fn cfg(size: WarehouseSize, auto_suspend_secs: u64) -> ReplayConfig {
        ReplayConfig {
            original: WarehouseConfig::new(size).with_auto_suspend_secs(auto_suspend_secs),
            window_start: 0,
            window_end: 24 * HOUR_MS,
        }
    }

    #[test]
    fn empty_history_costs_nothing() {
        let m = WarehouseCostModel::default();
        let out = m.replay(&[], &cfg(WarehouseSize::Small, 60));
        assert_eq!(out.estimated_credits, 0.0);
        assert_eq!(out.sessions, 0);
        assert_eq!(out.replayed_queries, 0);
    }

    #[test]
    fn single_query_bills_exec_plus_auto_suspend() {
        let m = WarehouseCostModel::default();
        // 10-minute query at the original size, 60 s auto-suspend.
        let out = m.replay(
            &[rec(1, 0, 10 * MINUTE_MS, WarehouseSize::Small)],
            &cfg(WarehouseSize::Small, 60),
        );
        let expected_ms = 10 * MINUTE_MS + 60 * SECOND_MS;
        assert_eq!(out.active_ms, expected_ms);
        assert_eq!(out.sessions, 1);
        let expected_credits =
            expected_ms as f64 / 1000.0 * WarehouseSize::Small.credits_per_second();
        assert!((out.estimated_credits - expected_credits).abs() < 1e-9);
    }

    #[test]
    fn short_query_pays_the_sixty_second_minimum() {
        let m = WarehouseCostModel::default();
        // 5 s query with auto-suspend 10 s: active 15 s < 60 s minimum.
        let out = m.replay(
            &[rec(1, 0, 5 * SECOND_MS, WarehouseSize::XSmall)],
            &cfg(WarehouseSize::XSmall, 10),
        );
        let min_credits = 60.0 * WarehouseSize::XSmall.credits_per_second();
        assert!(
            (out.estimated_credits - min_credits).abs() < 1e-9,
            "got {} want {min_credits}",
            out.estimated_credits
        );
    }

    #[test]
    fn gaps_within_auto_suspend_bill_in_full() {
        let m = WarehouseCostModel::default();
        // Two 1-minute queries separated by a 5-minute gap, auto-suspend 10
        // minutes: the warehouse never suspends, billing runs continuously.
        let recs = vec![
            rec(1, 0, MINUTE_MS, WarehouseSize::XSmall),
            rec(2, 6 * MINUTE_MS, MINUTE_MS, WarehouseSize::XSmall),
        ];
        let out = m.replay(&recs, &cfg(WarehouseSize::XSmall, 600));
        assert_eq!(out.sessions, 1);
        // 0..7 min active + 10 min trailing auto-suspend = 17 min.
        assert_eq!(out.active_ms, 17 * MINUTE_MS);
    }

    #[test]
    fn gaps_beyond_auto_suspend_split_sessions() {
        let m = WarehouseCostModel::default();
        // Two bursts an hour apart with 60 s auto-suspend.
        let recs = vec![
            rec(1, 0, 2 * MINUTE_MS, WarehouseSize::XSmall),
            rec(2, HOUR_MS, 2 * MINUTE_MS, WarehouseSize::XSmall),
        ];
        let out = m.replay(&recs, &cfg(WarehouseSize::XSmall, 60));
        assert_eq!(out.sessions, 2);
        // Each session: 2 min exec + 1 min tail.
        assert_eq!(out.active_ms, 2 * 3 * MINUTE_MS);
    }

    #[test]
    fn larger_original_size_costs_more_for_serial_work() {
        // With the default (untrained) scaler the slope is -1: latency halves
        // as size doubles, so pure execution cost is size-invariant — but the
        // auto-suspend tail is charged at the bigger rate, so bigger original
        // sizes estimate higher cost for sparse workloads.
        let m = WarehouseCostModel::default();
        let recs = vec![rec(1, 0, 8 * MINUTE_MS, WarehouseSize::XSmall)];
        let small = m.replay(&recs, &cfg(WarehouseSize::XSmall, 600));
        let large = m.replay(&recs, &cfg(WarehouseSize::Large, 600));
        assert!(
            large.estimated_credits > small.estimated_credits,
            "large {} vs small {}",
            large.estimated_credits,
            small.estimated_credits
        );
    }

    #[test]
    fn latency_rescaling_uses_observed_size() {
        // Query observed on Medium (downsized world); replay at original
        // X-Small should scale execution back up 4x under the default slope.
        let m = WarehouseCostModel::default();
        let out = m.replay(
            &[rec(1, 0, 10 * MINUTE_MS, WarehouseSize::Medium)],
            &cfg(WarehouseSize::XSmall, 0),
        );
        assert_eq!(out.active_ms, 40 * MINUTE_MS);
    }

    #[test]
    fn dependent_chain_moves_with_replayed_latencies() {
        // Chained ETL observed on Medium: q2 arrives 5 s after q1 ends.
        // Replayed on X-Small (4x slower), q2 should still arrive 5 s after
        // the *replayed* q1 end — stretching the overall timeline.
        let m = WarehouseCostModel {
            gaps: GapModel {
                dependency_threshold_ms: 30_000,
                median_dependent_gap_ms: 5_000,
                dependent_fraction: 1.0,
            },
            ..WarehouseCostModel::default()
        };
        let recs = vec![
            rec(1, 0, 10 * MINUTE_MS, WarehouseSize::Medium),
            rec(
                2,
                10 * MINUTE_MS + 5 * SECOND_MS,
                10 * MINUTE_MS,
                WarehouseSize::Medium,
            ),
        ];
        let out = m.replay(&recs, &cfg(WarehouseSize::XSmall, 0));
        // Each query: 40 min replayed. Chain: 40 min + 5 s + 40 min.
        assert_eq!(out.active_ms, 80 * MINUTE_MS + 5 * SECOND_MS);
        assert_eq!(out.sessions, 1);
    }

    #[test]
    fn concurrency_beyond_capacity_queues() {
        let m = WarehouseCostModel::default();
        // 16 one-minute queries at once, single cluster with 8 slots: two
        // serial batches -> active span 2 minutes (plus nothing else).
        let recs: Vec<QueryRecord> = (0..16)
            .map(|i| rec(i, 0, MINUTE_MS, WarehouseSize::XSmall))
            .collect();
        let out = m.replay(&recs, &cfg(WarehouseSize::XSmall, 0));
        assert_eq!(out.active_ms, 2 * MINUTE_MS);
    }

    #[test]
    fn window_filter_excludes_out_of_range_queries() {
        let m = WarehouseCostModel::default();
        let recs = vec![
            rec(1, 0, MINUTE_MS, WarehouseSize::XSmall),
            rec(2, 48 * HOUR_MS, MINUTE_MS, WarehouseSize::XSmall),
        ];
        let out = m.replay(&recs, &cfg(WarehouseSize::XSmall, 60));
        assert_eq!(out.replayed_queries, 1);
    }

    #[test]
    fn hourly_breakdown_sums_to_total() {
        let m = WarehouseCostModel::default();
        let recs: Vec<QueryRecord> = (0..20)
            .map(|i| rec(i, i * 20 * MINUTE_MS, 5 * MINUTE_MS, WarehouseSize::Small))
            .collect();
        let out = m.replay(&recs, &cfg(WarehouseSize::Small, 300));
        assert!((out.hourly.total() - out.estimated_credits).abs() < 1e-9);
        assert!(out.hourly.iter().count() > 1, "spans multiple hours");
    }

    #[test]
    fn multicluster_original_prices_parallelism() {
        let m = WarehouseCostModel::default();
        // 32 concurrent one-minute queries; original config allows 4 clusters
        // x8 slots, so everything runs at once on ~4 clusters.
        let recs: Vec<QueryRecord> = (0..32)
            .map(|i| rec(i, 0, MINUTE_MS, WarehouseSize::XSmall))
            .collect();
        let mut c = cfg(WarehouseSize::XSmall, 0);
        c.original = c.original.with_clusters(1, 4);
        let out = m.replay(&recs, &c);
        // Active span 1 minute, but priced at ~4 clusters.
        assert_eq!(out.active_ms, MINUTE_MS);
        let single_cluster_credits = 60.0 * WarehouseSize::XSmall.credits_per_second();
        assert!(
            out.estimated_credits > 3.0 * single_cluster_credits,
            "got {} want > {}",
            out.estimated_credits,
            3.0 * single_cluster_credits
        );
    }
}
