//! Cluster-count prediction (§5.2, "Impact on warehouse parallelism").
//!
//! "We train [a] cluster-count predictor using the past performance
//! statistics and the original max cluster count. To avoid dealing with
//! per-second predictions, we batch the past query execution into
//! mini-windows and then predict the average cluster count for each
//! mini-window."
//!
//! Implementation: for every mini-window of history we extract demand
//! features (mean concurrency, arrival rate) and fit OLS against the
//! observed mean cluster count, with the max cluster count as an input so
//! the model generalizes across configurations. An analytical estimate —
//! ceil(demand / per-cluster concurrency), clamped to [1, max] — serves as
//! both a feature and the fallback when history is too thin, and the learned
//! prediction is always clamped into the feasible [1, max] range.

use cdw_sim::billing::{exact_f64, span_ms};
use cdw_sim::{QueryRecord, SimTime, MINUTE_MS};
use nn::LinearModel;
use serde::{Deserialize, Serialize};
use telemetry::{WindowBuckets, WindowFeatures};

/// Mini-window length used for training and prediction.
pub const MINI_WINDOW_MS: SimTime = 5 * MINUTE_MS;

/// Predicts the average concurrent cluster count a configuration would run
/// for a given demand level.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterPredictor {
    model: Option<LinearModel>,
    /// Windows used in training (diagnostics).
    trained_windows: usize,
}

impl ClusterPredictor {
    /// Analytical floor: clusters needed to serve `mean_concurrency`
    /// queries with `max_concurrency` slots each, clamped to [1, max].
    pub fn analytic_estimate(
        mean_concurrency: f64,
        max_concurrency: u32,
        max_clusters: u32,
    ) -> f64 {
        let needed = (mean_concurrency / exact_f64(u64::from(max_concurrency.max(1)))).ceil();
        needed.clamp(1.0, exact_f64(u64::from(max_clusters.max(1))))
    }

    fn features(
        mean_concurrency: f64,
        arrival_rate_per_hour: f64,
        max_concurrency: u32,
        max_clusters: u32,
    ) -> Vec<f64> {
        vec![
            mean_concurrency,
            arrival_rate_per_hour / 100.0,
            exact_f64(u64::from(max_clusters)),
            Self::analytic_estimate(mean_concurrency, max_concurrency, max_clusters),
        ]
    }

    /// Trains on query history gathered while `max_clusters`/`max_concurrency`
    /// were in effect. Windows with no completed queries are skipped (their
    /// observed cluster count is unknown).
    ///
    /// The demand feature is *span-normalized* concurrency — busy time
    /// divided by the active span within the window, not by the window
    /// length — matching exactly how the replay engine queries the model
    /// (a one-minute burst in a five-minute window is five concurrent
    /// queries, not one).
    ///
    /// A record counts in the windows its `[start, end)` overlaps
    /// (`start < w_end && end > w_start`): a zero-duration record strictly
    /// inside a window adds no busy time but still stretches that window's
    /// active span, and a record ending exactly on a window's start is not
    /// in it. Linear in `records`: each window scans its share of a
    /// [`WindowBuckets`] only, which keeps the history's order.
    pub fn train(
        records: &[QueryRecord],
        start: SimTime,
        end: SimTime,
        max_concurrency: u32,
        max_clusters: u32,
    ) -> Self {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (w_start, bucket) in WindowBuckets::new(records, start, end, MINI_WINDOW_MS).iter() {
            let w = WindowFeatures::compute(bucket, w_start, MINI_WINDOW_MS);
            if w.mean_cluster_count <= 0.0 {
                continue;
            }
            // Active span within this window.
            let w_end = w_start + MINI_WINDOW_MS;
            let mut span_lo = SimTime::MAX;
            let mut span_hi = 0;
            let mut busy_ms = 0.0;
            for r in bucket {
                if r.start < w_end && r.end > w_start {
                    let lo = r.start.max(w_start);
                    let hi = r.end.min(w_end);
                    busy_ms += exact_f64(span_ms(lo, hi));
                    span_lo = span_lo.min(lo);
                    span_hi = span_hi.max(hi);
                }
            }
            let span = if span_hi > span_lo {
                exact_f64(span_hi - span_lo)
            } else {
                continue;
            };
            xs.push(Self::features(
                busy_ms / span,
                w.arrival_rate_per_hour,
                max_concurrency,
                max_clusters,
            ));
            ys.push(w.mean_cluster_count);
        }
        let model = if xs.len() >= 8 {
            // Ridge with a tiny penalty guards against collinear features
            // (the analytic estimate often correlates with concurrency).
            nn::ridge_fit(&xs, &ys, 1e-3)
        } else {
            None
        };
        Self {
            model,
            trained_windows: xs.len(),
        }
    }

    /// Windows that contributed to the fit.
    pub fn trained_windows(&self) -> usize {
        self.trained_windows
    }

    /// True when a learned model (vs. the analytic fallback) is active.
    pub fn is_learned(&self) -> bool {
        self.model.is_some()
    }

    /// Predicts the mean cluster count for a window with the given demand,
    /// under a configuration with `max_concurrency` slots per cluster and up
    /// to `max_clusters` clusters.
    pub fn predict(
        &self,
        mean_concurrency: f64,
        arrival_rate_per_hour: f64,
        max_concurrency: u32,
        max_clusters: u32,
    ) -> f64 {
        let analytic = Self::analytic_estimate(mean_concurrency, max_concurrency, max_clusters);
        let raw = match &self.model {
            Some(m) => m.predict(&Self::features(
                mean_concurrency,
                arrival_rate_per_hour,
                max_concurrency,
                max_clusters,
            )),
            None => analytic,
        };
        raw.clamp(1.0, exact_f64(u64::from(max_clusters.max(1))))
    }
}

#[cfg(test)]
#[allow(clippy::as_conversions)]
mod tests {
    use super::*;
    use cdw_sim::WarehouseSize;

    fn rec(id: u64, arrival: SimTime, end: SimTime, clusters: u32) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: "WH".into(),
            size: WarehouseSize::Small,
            cluster_count: clusters,
            text_hash: id,
            template_hash: 0,
            arrival,
            start: arrival,
            end,
            bytes_scanned: 0,
            cache_warm_fraction: 1.0,
        }
    }

    #[test]
    fn analytic_estimate_is_clamped_and_monotone() {
        assert_eq!(ClusterPredictor::analytic_estimate(0.0, 8, 4), 1.0);
        assert_eq!(ClusterPredictor::analytic_estimate(9.0, 8, 4), 2.0);
        assert_eq!(ClusterPredictor::analytic_estimate(100.0, 8, 4), 4.0);
        // Zero concurrency is guarded to one slot per cluster.
        assert_eq!(ClusterPredictor::analytic_estimate(5.0, 0, 4), 4.0);
    }

    #[test]
    fn untrained_predictor_uses_analytic_fallback() {
        let p = ClusterPredictor::default();
        assert!(!p.is_learned());
        assert_eq!(p.predict(16.0, 10.0, 8, 4), 2.0);
    }

    #[test]
    fn prediction_never_leaves_feasible_range() {
        let p = ClusterPredictor::default();
        for demand in [0.0, 1.0, 50.0, 1000.0] {
            let c = p.predict(demand, 0.0, 8, 3);
            assert!((1.0..=3.0).contains(&c), "demand {demand} -> {c}");
        }
    }

    #[test]
    fn training_learns_demand_to_cluster_relationship() {
        // Synthesize history: windows alternate between 1 query (1 cluster)
        // and 20 concurrent queries (3 clusters).
        let mut recs = Vec::new();
        let mut id = 0;
        for w in 0..40u64 {
            let base = w * MINI_WINDOW_MS;
            // End strictly inside the window so completions (and thus the
            // observed cluster-count labels) stay aligned with the demand.
            let end = base + MINI_WINDOW_MS - 1_000;
            if w % 2 == 0 {
                recs.push(rec(id, base, end, 1));
                id += 1;
            } else {
                for q in 0..20 {
                    recs.push(rec(id, base + q * 100, end, 3));
                    id += 1;
                }
            }
        }
        let p = ClusterPredictor::train(&recs, 0, 40 * MINI_WINDOW_MS, 8, 3);
        assert!(p.is_learned(), "enough windows to learn");
        let low = p.predict(1.0, 12.0, 8, 3);
        let high = p.predict(20.0, 240.0, 8, 3);
        assert!(low < 1.7, "low demand -> ~1 cluster, got {low}");
        assert!(high > 2.3, "high demand -> ~3 clusters, got {high}");
    }

    /// Zero-duration records strictly inside a window add no busy time but
    /// are its active span; a record ending exactly on a window's start
    /// completes in that window without overlapping it.
    #[test]
    fn zero_duration_records_stretch_the_span_and_an_end_on_the_edge_does_not_overlap() {
        let trained = |recs: &[QueryRecord], from: SimTime| {
            ClusterPredictor::train(recs, from, from + MINI_WINDOW_MS, 8, 4).trained_windows()
        };
        let instants = [rec(0, 100_000, 100_000, 1), rec(1, 200_000, 200_000, 1)];
        assert_eq!(trained(&instants, 0), 1, "a span of 100 s, none of it busy");
        assert_eq!(trained(&instants[..1], 0), 0, "one instant spans nothing");

        let edge = MINI_WINDOW_MS;
        let on_edge = [rec(0, edge - 10_000, edge, 2), rec(1, edge, edge, 2)];
        assert_eq!(
            trained(&on_edge, edge),
            0,
            "both complete in the window, neither runs in it"
        );
        assert_eq!(trained(&[rec(0, edge - 10_000, edge + 1, 2)], edge), 1);
    }

    /// [`ClusterPredictor::train`] as it was: every window scans the whole
    /// history, for its features and again for its active span.
    fn train_by_scanning(
        records: &[QueryRecord],
        start: SimTime,
        end: SimTime,
        max_concurrency: u32,
        max_clusters: u32,
    ) -> ClusterPredictor {
        let refs: Vec<&QueryRecord> = records.iter().collect();
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let mut w_start = start;
        while w_start < end {
            let w = WindowFeatures::compute(&refs, w_start, MINI_WINDOW_MS);
            let w_end = w_start + MINI_WINDOW_MS;
            let (mut span_lo, mut span_hi, mut busy_ms) = (SimTime::MAX, 0, 0.0);
            for r in records {
                if r.start < w_end && r.end > w_start {
                    let (lo, hi) = (r.start.max(w_start), r.end.min(w_end));
                    busy_ms += exact_f64(span_ms(lo, hi));
                    span_lo = span_lo.min(lo);
                    span_hi = span_hi.max(hi);
                }
            }
            if w.mean_cluster_count > 0.0 && span_hi > span_lo {
                xs.push(ClusterPredictor::features(
                    busy_ms / exact_f64(span_hi - span_lo),
                    w.arrival_rate_per_hour,
                    max_concurrency,
                    max_clusters,
                ));
                ys.push(w.mean_cluster_count);
            }
            w_start = w_end;
        }
        ClusterPredictor {
            model: (xs.len() >= 8)
                .then(|| nn::ridge_fit(&xs, &ys, 1e-3))
                .flatten(),
            trained_windows: xs.len(),
        }
    }

    #[test]
    fn bucketed_training_equals_scanning_every_window() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut learned = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = rng.gen_range(0..3u64) * MINI_WINDOW_MS + rng.gen_range(0..2u64) * 999;
            // Not always a whole number of windows.
            let end = start + rng.gen_range(0..120u64) * MINI_WINDOW_MS / 2;
            let count = rng.gen_range(0..120u64);
            // An instant in `lo..=hi`, one in four snapped down to a window edge.
            let mut instant = |lo: SimTime, hi: SimTime| -> SimTime {
                let t = rng.gen_range(lo..hi + 1);
                match rng.gen_range(0..4) {
                    0 => {
                        (start + t.saturating_sub(start) / MINI_WINDOW_MS * MINI_WINDOW_MS).max(lo)
                    }
                    _ => t,
                }
            };
            let mut recs = Vec::new();
            for id in 0..count {
                // From before the range to past its overhang, zero to three
                // windows long, some of them queued before they start.
                let from = start.saturating_sub(MINI_WINDOW_MS);
                let arrival = instant(from, end + 2 * MINI_WINDOW_MS);
                let begin = instant(arrival, arrival + (id % 3) * MINI_WINDOW_MS / 4);
                let finish = instant(begin, begin + 3 * MINI_WINDOW_MS);
                let clusters = 1 + (id % 4) as u32;
                let mut r = rec(id, arrival, finish, clusters);
                r.start = begin;
                recs.push(r.clone());
                if id % 7 == 0 {
                    recs.push(r);
                }
            }
            let p = ClusterPredictor::train(&recs, start, end, 8, 4);
            assert_eq!(
                p,
                train_by_scanning(&recs, start, end, 8, 4),
                "seed {seed}: [{start}, {end})"
            );
            learned += usize::from(p.is_learned());
        }
        assert!(
            learned > 32,
            "only {learned} of 64 histories trained a model"
        );
    }

    #[test]
    fn thin_history_stays_analytic() {
        let recs = vec![rec(0, 0, 10_000, 1)];
        let p = ClusterPredictor::train(&recs, 0, MINI_WINDOW_MS, 8, 4);
        assert!(!p.is_learned());
        assert!(p.trained_windows() < 8);
    }
}
