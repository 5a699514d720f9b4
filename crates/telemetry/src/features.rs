//! Windowed feature extraction over query history.
//!
//! The smart models (§6) and the cost model's parameter estimators (§5.2)
//! both consume aggregate views of telemetry: arrival rates, latency
//! percentiles, queueing, concurrency. This module computes those aggregates
//! over fixed windows ("mini-windows" in the paper's cluster-predictor
//! description).

use cdw_sim::{QueryRecord, SimTime};
use serde::{Deserialize, Serialize};

/// Aggregate features of one time window for one warehouse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowFeatures {
    pub window_start: SimTime,
    pub window_ms: SimTime,
    /// Queries arriving in the window.
    pub arrivals: usize,
    /// Arrivals per hour.
    pub arrival_rate_per_hour: f64,
    /// Mean end-to-end latency (ms) of queries completing in the window.
    pub mean_latency_ms: f64,
    /// 99th-percentile end-to-end latency (ms).
    pub p99_latency_ms: f64,
    /// Mean queue wait (ms).
    pub mean_queue_ms: f64,
    /// Total bytes scanned.
    pub bytes_scanned: u64,
    /// Mean cluster count observed at query start.
    pub mean_cluster_count: f64,
    /// Average number of concurrently executing queries (demand pressure).
    pub mean_concurrency: f64,
}

impl WindowFeatures {
    /// An empty window (no queries).
    pub fn empty(window_start: SimTime, window_ms: SimTime) -> Self {
        Self {
            window_start,
            window_ms,
            arrivals: 0,
            arrival_rate_per_hour: 0.0,
            mean_latency_ms: 0.0,
            p99_latency_ms: 0.0,
            mean_queue_ms: 0.0,
            bytes_scanned: 0,
            mean_cluster_count: 0.0,
            mean_concurrency: 0.0,
        }
    }

    /// Computes features for `[window_start, window_start + window_ms)` from
    /// records overlapping the window. `records` may be a superset; only
    /// relevant rows are used (arrivals for rate; completions for latency).
    pub fn compute(records: &[&QueryRecord], window_start: SimTime, window_ms: SimTime) -> Self {
        assert!(window_ms > 0, "window must have positive length");
        let window_end = window_start + window_ms;
        let arrived: Vec<&&QueryRecord> = records
            .iter()
            .filter(|r| (window_start..window_end).contains(&r.arrival))
            .collect();
        let completed: Vec<&&QueryRecord> = records
            .iter()
            .filter(|r| (window_start..window_end).contains(&r.end))
            .collect();

        let mut out = Self::empty(window_start, window_ms);
        out.arrivals = arrived.len();
        out.arrival_rate_per_hour = arrived.len() as f64 * 3_600_000.0 / window_ms as f64;
        out.bytes_scanned = arrived.iter().map(|r| r.bytes_scanned).sum();

        if !completed.is_empty() {
            let lats: Vec<f64> = completed
                .iter()
                .map(|r| r.total_latency_ms() as f64)
                .collect();
            out.mean_latency_ms = lats.iter().sum::<f64>() / lats.len() as f64;
            out.p99_latency_ms = percentile(&lats, 99.0);
            out.mean_queue_ms = completed.iter().map(|r| r.queued_ms() as f64).sum::<f64>()
                / completed.len() as f64;
            out.mean_cluster_count = completed
                .iter()
                .map(|r| r.cluster_count as f64)
                .sum::<f64>()
                / completed.len() as f64;
        }

        // Mean concurrency: total busy time overlapping the window divided
        // by the window length.
        let busy_ms: u64 = records
            .iter()
            .filter(|r| r.start < window_end && r.end > window_start)
            .map(|r| r.end.min(window_end) - r.start.max(window_start))
            .sum();
        out.mean_concurrency = busy_ms as f64 / window_ms as f64;
        out
    }

    /// Splits `[start, end)` into consecutive windows and computes features
    /// for each. When `window_ms` does not divide `end - start` the last
    /// window runs past `end`, and arrivals and completions in that overhang
    /// count towards it.
    ///
    /// Linear in `records`: [`WindowFeatures::compute`] sees only its
    /// window's share of a [`WindowBuckets`], from which it picks what a scan
    /// of the whole history would, in the same order.
    pub fn series(
        records: &[QueryRecord],
        start: SimTime,
        end: SimTime,
        window_ms: SimTime,
    ) -> Vec<WindowFeatures> {
        (WindowBuckets::new(records, start, end, window_ms).iter())
            .map(|(t, bucket)| Self::compute(bucket, t, window_ms))
            .collect()
    }
}

/// `[start, end)` tiled with the windows of [`WindowFeatures::series`], each
/// holding the records that can matter to it: those whose life, from arrival
/// (or start, if earlier) to completion, touches the window, in input order.
/// Whatever a per-window statistic filters out of the whole history — by
/// arrival, start or end inside the window, or by execution overlapping it —
/// it finds in that window's bucket, having visited each record once.
#[derive(Debug)]
pub struct WindowBuckets<'a> {
    start: SimTime,
    window_ms: SimTime,
    /// Window `w` holds `records[offsets[w]..offsets[w + 1]]`.
    offsets: Vec<usize>,
    records: Vec<&'a QueryRecord>,
}

impl<'a> WindowBuckets<'a> {
    /// Buckets `records` (two passes: count, then place).
    pub fn new(
        records: &'a [QueryRecord],
        start: SimTime,
        end: SimTime,
        window_ms: SimTime,
    ) -> Self {
        assert!(window_ms > 0 && end >= start);
        let windows = (end - start).div_ceil(window_ms);
        let tiled_end = start + windows * window_ms;
        // Indices of the windows `r` touches. One below `windows`, which the
        // `offsets` vector outnumbers, loses nothing to the cast.
        let touched = |r: &QueryRecord| {
            let (first, last) = (r.arrival.min(r.start), r.end.max(r.arrival));
            if windows == 0 || last < start || first >= tiled_end {
                return 0..0;
            }
            let window_of = |t: SimTime| ((t - start) / window_ms) as usize;
            window_of(first.max(start))..window_of(last.min(tiled_end - 1)) + 1
        };
        let mut offsets: Vec<usize> = (0..=windows).map(|_| 0).collect();
        for r in records {
            for w in touched(r) {
                offsets[w + 1] += 1;
            }
        }
        for w in 1..offsets.len() {
            offsets[w] += offsets[w - 1];
        }
        let mut placed = Vec::new();
        if let (Some(any), Some(&total)) = (records.first(), offsets.last()) {
            placed.resize(total, any);
            let mut next = offsets.clone();
            for r in records {
                for w in touched(r) {
                    placed[next[w]] = r;
                    next[w] += 1;
                }
            }
        }
        Self {
            start,
            window_ms,
            offsets,
            records: placed,
        }
    }

    /// Each window's start and bucket, in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &[&'a QueryRecord])> {
        let starts = (0..).map(|w| self.start + w * self.window_ms);
        let buckets = self.offsets.windows(2).map(|o| &self.records[o[0]..o[1]]);
        starts.zip(buckets)
    }
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted data. Returns 0.0 on
/// empty input.
///
/// Sorting uses [`f64::total_cmp`], so NaNs (which a degenerate window can
/// produce) order after every finite value instead of panicking; low/mid
/// percentiles of NaN-containing data stay finite.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::WarehouseSize;

    fn rec(id: u64, arrival: SimTime, start: SimTime, end: SimTime) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: "WH".into(),
            size: WarehouseSize::Small,
            cluster_count: 2,
            text_hash: id,
            template_hash: 0,
            arrival,
            start,
            end,
            bytes_scanned: 100,
            cache_warm_fraction: 0.5,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_of_single_value() {
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
    }

    #[test]
    fn percentile_empty_is_zero_for_any_p() {
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
    }

    #[test]
    fn percentile_tolerates_nan_input() {
        // NaNs order after every finite value under total_cmp: low and mid
        // percentiles stay finite, only the top ranks see the NaN.
        let v = [1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert!(percentile(&v, 100.0).is_nan());
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
    }

    #[test]
    fn percentile_boundaries_pick_extremes() {
        let v = [5.0, -3.0, 9.0, 1.0];
        assert_eq!(percentile(&v, 0.0), -3.0);
        assert_eq!(percentile(&v, 100.0), 9.0);
    }

    #[test]
    fn window_counts_arrivals_and_rates() {
        let recs: Vec<QueryRecord> = (0..6)
            .map(|i| rec(i, i * 10_000, i * 10_000, i * 10_000 + 5_000))
            .collect();
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let f = WindowFeatures::compute(&refs, 0, 60_000);
        assert_eq!(f.arrivals, 6);
        assert!((f.arrival_rate_per_hour - 360.0).abs() < 1e-9);
        assert_eq!(f.bytes_scanned, 600);
    }

    #[test]
    fn latency_stats_use_completions() {
        let recs = [
            rec(1, 0, 1_000, 11_000), // latency 11 s, queued 1 s
            rec(2, 0, 3_000, 23_000), // latency 23 s, queued 3 s
        ];
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let f = WindowFeatures::compute(&refs, 0, 60_000);
        assert!((f.mean_latency_ms - 17_000.0).abs() < 1e-9);
        assert!((f.mean_queue_ms - 2_000.0).abs() < 1e-9);
        assert_eq!(f.p99_latency_ms, 23_000.0);
        assert_eq!(f.mean_cluster_count, 2.0);
    }

    #[test]
    fn concurrency_integrates_overlap() {
        // Two queries each busy for half the window: mean concurrency 1.0.
        let recs = [rec(1, 0, 0, 30_000), rec(2, 0, 30_000, 60_000)];
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let f = WindowFeatures::compute(&refs, 0, 60_000);
        assert!((f.mean_concurrency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concurrency_clips_to_window() {
        // A query spanning far beyond the window contributes only its overlap.
        let recs = [rec(1, 0, 0, 600_000)];
        let refs: Vec<&QueryRecord> = recs.iter().collect();
        let f = WindowFeatures::compute(&refs, 0, 60_000);
        assert!((f.mean_concurrency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_tiles_the_range() {
        let recs: Vec<QueryRecord> = (0..10)
            .map(|i| rec(i, i * 60_000, i * 60_000, i * 60_000 + 1_000))
            .collect();
        let series = WindowFeatures::series(&recs, 0, 600_000, 60_000);
        assert_eq!(series.len(), 10);
        assert!(series.iter().all(|w| w.arrivals == 1));
    }

    /// The last window of a range `window_ms` does not divide runs past
    /// `end`, and what arrives or completes in the overhang counts.
    #[test]
    fn series_last_window_counts_the_overhang_past_end() {
        let recs = [
            rec(1, 130_000, 130_000, 140_000),
            rec(2, 170_000, 171_000, 175_000),
        ];
        let series = WindowFeatures::series(&recs, 0, 150_000, 60_000);
        assert_eq!(series.len(), 3);
        let last = &series[2];
        assert_eq!((last.window_start, last.window_ms), (120_000, 60_000));
        assert_eq!(last.arrivals, 2, "the arrival at 170 s is past `end`");
        assert_eq!(last.mean_latency_ms, 7_500.0);
        assert_eq!(last.mean_concurrency, 14_000.0 / 60_000.0);
        // An empty range has no window, whatever runs across it.
        assert!(WindowFeatures::series(&recs, 135_000, 135_000, 60_000).is_empty());
        // Past the overhang is past the series.
        let later = [rec(3, 180_000, 180_000, 181_000)];
        let series = WindowFeatures::series(&later, 0, 150_000, 60_000);
        assert!(series
            .iter()
            .all(|w| *w == WindowFeatures::empty(w.window_start, 60_000)));
    }

    /// The scan [`WindowFeatures::series`] replaced: every window filters the
    /// whole history.
    fn series_by_scanning(
        records: &[QueryRecord],
        start: SimTime,
        end: SimTime,
        window_ms: SimTime,
    ) -> Vec<WindowFeatures> {
        let refs: Vec<&QueryRecord> = records.iter().collect();
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            out.push(WindowFeatures::compute(&refs, t, window_ms));
            t += window_ms;
        }
        out
    }

    #[test]
    fn bucketed_series_equals_scanning_every_window() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (mut busy_windows, mut empty_windows) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let window_ms: SimTime = [1_000, 60_000, 300_000][rng.gen_range(0..3usize)];
            let start = rng.gen_range(0..4u64) * window_ms + rng.gen_range(0..2u64) * 17;
            // Not always a whole number of windows, sometimes none at all.
            let end = start + rng.gen_range(0..90u64) * window_ms / 3;
            // Few enough records that windows stay empty.
            let count = rng.gen_range(0..20u64);
            // An instant in `lo..=hi`, one in four snapped down to a window edge.
            let mut instant = |lo: SimTime, hi: SimTime| -> SimTime {
                let t = rng.gen_range(lo..hi + 1);
                match rng.gen_range(0..4) {
                    0 => (start + t.saturating_sub(start) / window_ms * window_ms).max(lo),
                    _ => t,
                }
            };
            let mut recs = Vec::new();
            for id in 0..count {
                // From before the range to past its overhang, zero to three windows long.
                let arrival = instant(start.saturating_sub(window_ms), end + 2 * window_ms);
                let begin = instant(arrival, arrival + window_ms / 2);
                let finish = instant(begin, begin + 3 * window_ms);
                recs.push(rec(id, arrival, begin, finish));
                if id % 7 == 0 {
                    recs.push(rec(100 + id, arrival, begin, finish));
                }
            }
            let series = WindowFeatures::series(&recs, start, end, window_ms);
            assert_eq!(
                series,
                series_by_scanning(&recs, start, end, window_ms),
                "seed {seed}: [{start}, {end}) by {window_ms}"
            );
            let empty =
                |w: &&WindowFeatures| **w == WindowFeatures::empty(w.window_start, window_ms);
            empty_windows += series.iter().filter(empty).count();
            busy_windows += series.len() - series.iter().filter(empty).count();
        }
        assert!(
            busy_windows > 100 && empty_windows > 100,
            "{busy_windows} / {empty_windows}"
        );
    }

    #[test]
    fn empty_window_is_all_zero() {
        let f = WindowFeatures::compute(&[], 0, 60_000);
        assert_eq!(f, WindowFeatures::empty(0, 60_000));
    }
}
