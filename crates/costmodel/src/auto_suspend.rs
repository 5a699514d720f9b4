//! Analytic auto-suspend optimization (§3 "Memory optimization").
//!
//! The paper frames the auto-suspend interval as a cost trade-off the
//! customer cannot solve by rule of thumb: a short interval drops the local
//! cache (cold reads slow the next queries and lengthen billed runtime), a
//! long one pays for idle compute. Both sides of that trade-off are directly
//! estimable from telemetry:
//!
//! * the **idle cost** of interval `a` is `Σ min(gap_i, a)` over the
//!   observed completion→arrival gaps, at the warehouse's credit rate;
//! * the **cold-restart cost** is the number of gaps exceeding `a` times the
//!   expected penalty per cold resume — extra billed runtime plus the
//!   slider-weighted latency penalty — where the cold *uplift* is measured
//!   by comparing executions of the same template at low vs. high cache
//!   warmth (both recorded in telemetry).
//!
//! The optimizer evaluates every rung of the candidate ladder and returns
//! the cost-minimizing one. This is the "analytical model calibrated by
//! learned parameters" pattern of §5 applied to a single knob.

use cdw_sim::billing::{count_f64, exact_f64};
use cdw_sim::{QueryRecord, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Learned inputs for the auto-suspend trade-off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoSuspendOptimizer {
    /// Observed idle gaps (completion of all work → next arrival), ms.
    gaps_ms: Vec<SimTime>,
    /// Fractional execution-time uplift of a cold start vs. warm run
    /// (0.5 = cold runs take 50% longer).
    cold_uplift: f64,
    /// Mean execution time, ms.
    mean_exec_ms: f64,
}

/// Warm-fraction thresholds for classifying observations.
const COLD_THRESHOLD: f64 = 0.25;
const WARM_THRESHOLD: f64 = 0.75;
/// Credit-equivalent charged per unit of *excess* latency ratio beyond the
/// slider's tolerance, per cold event.
const EXCESS_LATENCY_COST: f64 = 0.2;

impl AutoSuspendOptimizer {
    /// Fits from query history.
    pub fn train(records: &[QueryRecord]) -> Self {
        let mut ordered: Vec<&QueryRecord> = records.iter().collect();
        ordered.sort_by_key(|r| (r.arrival, r.query_id));
        let mut gaps = Vec::new();
        let mut max_end: Option<SimTime> = None;
        for r in &ordered {
            if let Some(prev) = max_end {
                if r.arrival > prev {
                    gaps.push(r.arrival - prev);
                }
            }
            max_end = Some(max_end.map_or(r.end, |m| m.max(r.end)));
        }

        // Cold uplift: same-template executions at low vs high warmth.
        // BTreeMap so the uplift average sums in template-hash order
        // (bit-reproducible across runs).
        let mut cold: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        let mut warm: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        let mut exec_sum = 0.0;
        let mut exec_n = 0usize;
        for r in records {
            let exec = exact_f64(r.execution_ms());
            if exec <= 0.0 {
                continue;
            }
            exec_sum += exec;
            exec_n += 1;
            if r.cache_warm_fraction <= COLD_THRESHOLD {
                let e = cold.entry(r.template_hash).or_insert((0.0, 0));
                e.0 += exec;
                e.1 += 1;
            } else if r.cache_warm_fraction >= WARM_THRESHOLD {
                let e = warm.entry(r.template_hash).or_insert((0.0, 0));
                e.0 += exec;
                e.1 += 1;
            }
        }
        let mut uplifts = Vec::new();
        for (tpl, (cs, cn)) in &cold {
            if let Some((ws, wn)) = warm.get(tpl) {
                let c = cs / count_f64(*cn);
                let w = ws / count_f64(*wn);
                if w > 0.0 {
                    uplifts.push((c / w - 1.0).clamp(0.0, 3.0));
                }
            }
        }
        let cold_uplift = if uplifts.is_empty() {
            0.5 // prior: cold starts run ~50% longer
        } else {
            uplifts.iter().sum::<f64>() / count_f64(uplifts.len())
        };
        Self {
            gaps_ms: gaps,
            cold_uplift,
            mean_exec_ms: if exec_n > 0 {
                exec_sum / count_f64(exec_n)
            } else {
                10_000.0
            },
        }
    }

    /// Measured cold-start execution uplift.
    pub fn cold_uplift(&self) -> f64 {
        self.cold_uplift
    }

    /// Expected cost (credits-equivalent) of running with auto-suspend `a`,
    /// over the training window. `allowed_latency_ratio` is the slider's
    /// tolerated p99 inflation: a cold start whose uplift stays within it
    /// costs only its extra billed runtime, not a latency penalty.
    pub fn expected_cost(
        &self,
        auto_suspend_ms: SimTime,
        credits_per_hour: f64,
        perf_lambda: f64,
        allowed_latency_ratio: f64,
    ) -> f64 {
        let rate_per_ms = credits_per_hour / 3_600_000.0;
        let extra_ms = self.mean_exec_ms * self.cold_uplift;
        let excess = ((1.0 + self.cold_uplift) / allowed_latency_ratio.max(1.0) - 1.0).max(0.0);
        let cold_event_cost = extra_ms * rate_per_ms + perf_lambda * excess * EXCESS_LATENCY_COST;
        let mut cost = 0.0;
        for &gap in &self.gaps_ms {
            let idle = exact_f64(gap.min(auto_suspend_ms));
            cost += idle * rate_per_ms;
            if gap > auto_suspend_ms {
                cost += cold_event_cost;
            }
        }
        cost
    }

    /// The rung of `ladder` minimizing [`AutoSuspendOptimizer::expected_cost`].
    /// Falls back to the largest rung when no gaps were observed (nothing to
    /// optimize; stay conservative).
    pub fn optimal_ms(
        &self,
        ladder: &[SimTime],
        credits_per_hour: f64,
        perf_lambda: f64,
        allowed_latency_ratio: f64,
    ) -> SimTime {
        assert!(!ladder.is_empty(), "empty auto-suspend ladder");
        let conservative = ladder.last().copied().unwrap_or(0);
        if self.gaps_ms.is_empty() {
            return conservative;
        }
        let mut best = conservative;
        let mut best_cost = f64::INFINITY;
        for &a in ladder {
            let cost = self.expected_cost(a, credits_per_hour, perf_lambda, allowed_latency_ratio);
            if cost < best_cost {
                best = a;
                best_cost = cost;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{WarehouseSize, HOUR_MS, MINUTE_MS};

    fn rec(id: u64, arrival: SimTime, exec: SimTime, warm: f64) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: "WH".into(),
            size: WarehouseSize::Large,
            cluster_count: 1,
            text_hash: id,
            template_hash: 1,
            arrival,
            start: arrival,
            end: arrival + exec,
            bytes_scanned: 0,
            cache_warm_fraction: warm,
        }
    }

    const LADDER: [SimTime; 7] = [
        30_000, 60_000, 120_000, 300_000, 600_000, 1_800_000, 3_600_000,
    ];

    #[test]
    fn sparse_arrivals_prefer_short_suspend() {
        // Hour-long gaps, modest cold uplift: idle cost dominates.
        let recs: Vec<QueryRecord> = (0..24)
            .map(|i| rec(i, i * HOUR_MS, 30_000, if i == 0 { 0.0 } else { 0.5 }))
            .collect();
        let opt = AutoSuspendOptimizer::train(&recs);
        let best = opt.optimal_ms(&LADDER, 8.0, 5.0, 1.6);
        assert!(
            best <= 60_000,
            "sparse workload should suspend fast, got {best}"
        );
    }

    #[test]
    fn tight_gaps_prefer_staying_up() {
        // Gaps of ~90 s with a large measured cold uplift: suspending at
        // 30-60 s would eat a cold start on nearly every gap.
        let mut recs = Vec::new();
        let mut t = 0;
        for i in 0..50 {
            let warm = if i % 2 == 0 { 0.1 } else { 0.9 };
            // Cold runs take 3x longer than warm: uplift 2.0.
            let exec = if warm < 0.5 { 90_000 } else { 30_000 };
            recs.push(rec(i, t, exec, warm));
            t += exec + 90_000;
        }
        let opt = AutoSuspendOptimizer::train(&recs);
        assert!(opt.cold_uplift() > 1.5, "uplift {}", opt.cold_uplift());
        let best = opt.optimal_ms(&LADDER, 1.0, 5.0, 1.6);
        assert!(
            best >= 120_000,
            "cache-hot workload should idle through gaps, got {best}"
        );
    }

    #[test]
    fn higher_rate_pushes_toward_shorter_suspend() {
        let recs: Vec<QueryRecord> = (0..24)
            .map(|i| rec(i, i * 10 * MINUTE_MS, 30_000, 0.5))
            .collect();
        let opt = AutoSuspendOptimizer::train(&recs);
        let cheap_rate = opt.optimal_ms(&LADDER, 1.0, 5.0, 1.6);
        let dear_rate = opt.optimal_ms(&LADDER, 64.0, 5.0, 1.6);
        assert!(dear_rate <= cheap_rate);
    }

    #[test]
    fn no_gaps_stays_conservative() {
        let opt = AutoSuspendOptimizer::train(&[]);
        assert_eq!(
            opt.optimal_ms(&LADDER, 8.0, 5.0, 1.6),
            *LADDER.last().unwrap()
        );
    }

    #[test]
    fn expected_cost_is_monotone_in_idle_for_long_gaps() {
        // With hour-long gaps and negligible cold cost, expected cost grows
        // with the auto-suspend interval.
        let recs: Vec<QueryRecord> = (0..10).map(|i| rec(i, i * HOUR_MS, 1_000, 0.9)).collect();
        let opt = AutoSuspendOptimizer::train(&recs);
        let short = opt.expected_cost(30_000, 8.0, 0.0, 1.6);
        let long = opt.expected_cost(1_800_000, 8.0, 0.0, 1.6);
        assert!(long > short);
    }

    #[test]
    fn cold_uplift_is_bit_identical_across_input_orderings() {
        // The uplift average sums per-template ratios; map-order leakage
        // would make the result depend on record ordering. Pin bit-identity.
        let mut recs = Vec::new();
        let mut t = 0;
        for i in 0..40 {
            let tpl = i % 4;
            let warm = if i % 2 == 0 { 0.1 } else { 0.9 };
            let exec = if warm < 0.5 {
                60_000 + tpl * 7_000
            } else {
                20_000 + tpl * 3_000
            };
            let mut r = rec(i, t, exec, warm);
            r.template_hash = tpl;
            recs.push(r);
            t += exec + 45_000;
        }
        let forward = AutoSuspendOptimizer::train(&recs);
        let mut reversed = recs.clone();
        reversed.reverse();
        let backward = AutoSuspendOptimizer::train(&reversed);
        assert_eq!(
            forward.cold_uplift().to_bits(),
            backward.cold_uplift().to_bits()
        );
    }

    #[test]
    fn uplift_prior_used_without_warm_cold_pairs() {
        let recs: Vec<QueryRecord> = (0..5).map(|i| rec(i, i * HOUR_MS, 1_000, 0.5)).collect();
        let opt = AutoSuspendOptimizer::train(&recs);
        assert_eq!(opt.cold_uplift(), 0.5);
    }
}
