//! The four workload archetypes from the paper's evaluation.

use crate::arrival::{diurnal_rate, month_end_multiplier, poisson_arrivals, scheduled_arrivals};
use crate::template::{IdAllocator, QueryTemplate};
use cdw_sim::mix::splitmix64;
use cdw_sim::{QuerySpec, SimTime, DAY_MS, HOUR_MS, MINUTE_MS, SECOND_MS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic workload source: given a window and a seed it produces
/// the same query trace every time.
pub trait WorkloadGenerator {
    /// Human-readable name (used in traces and reports).
    fn name(&self) -> &str;

    /// Generates all queries arriving in `[start, end)`, sorted by arrival.
    fn generate(
        &self,
        start: SimTime,
        end: SimTime,
        ids: &mut IdAllocator,
        rng: &mut StdRng,
    ) -> Vec<QuerySpec>;
}

fn sort_by_arrival(mut qs: Vec<QuerySpec>) -> Vec<QuerySpec> {
    qs.sort_by_key(|q| (q.arrival, q.id));
    qs
}

// ---------------------------------------------------------------------------
// ETL
// ---------------------------------------------------------------------------

/// Highly recurring scheduled ETL: `pipelines` jobs, each firing every
/// `period_ms`, each run executing a fixed chain of transform queries.
/// Work is near-deterministic, cache affinity low (transforms read fresh
/// data), scaling good. This is the paper's "predictable" warehouse.
#[derive(Debug, Clone)]
pub struct EtlWorkload {
    /// Number of independent pipelines.
    pub pipelines: usize,
    /// Schedule period for each pipeline.
    pub period_ms: SimTime,
    /// Queries per pipeline run.
    pub queries_per_run: usize,
    /// Median X-Small work per query, ms.
    pub median_work_ms: f64,
}

impl Default for EtlWorkload {
    fn default() -> Self {
        Self {
            pipelines: 4,
            period_ms: HOUR_MS,
            queries_per_run: 6,
            median_work_ms: 90_000.0,
        }
    }
}

impl WorkloadGenerator for EtlWorkload {
    fn name(&self) -> &str {
        "etl"
    }

    fn generate(
        &self,
        start: SimTime,
        end: SimTime,
        ids: &mut IdAllocator,
        rng: &mut StdRng,
    ) -> Vec<QuerySpec> {
        let mut out = Vec::new();
        for p in 0..self.pipelines {
            // Stagger pipelines across the period; small jitter models
            // orchestrator scheduling noise.
            let offset = (p as u64 * self.period_ms) / self.pipelines as u64;
            let runs = scheduled_arrivals(start, end, self.period_ms, offset, 30 * SECOND_MS, rng);
            for run_start in runs {
                let mut t = run_start;
                for q in 0..self.queries_per_run {
                    let template = QueryTemplate::new(
                        splitmix64(0xE71 ^ (p as u64) << 8 ^ q as u64),
                        self.median_work_ms,
                    )
                    .with_cache_affinity(0.2)
                    .with_scale_exponent(1.0)
                    .with_work_sigma(0.1);
                    let spec = template.instantiate(ids, rng, t);
                    // Chain: next step starts shortly after this one's
                    // nominal duration (dependencies between transforms).
                    t += (spec.work_ms_xs * 0.25) as SimTime + 5 * SECOND_MS;
                    out.push(spec);
                }
            }
        }
        sort_by_arrival(out)
    }
}

// ---------------------------------------------------------------------------
// BI dashboards
// ---------------------------------------------------------------------------

/// Bursty, cache-sensitive BI traffic concentrated in business hours. Each
/// arrival event is a *dashboard refresh*: a burst of several small queries
/// sharing templates (so caching matters a lot).
#[derive(Debug, Clone)]
pub struct BiWorkload {
    /// Dashboard refreshes per hour at the midday peak.
    pub peak_refreshes_per_hour: f64,
    /// Off-hours refresh rate.
    pub base_refreshes_per_hour: f64,
    /// Number of distinct dashboards (template groups).
    pub dashboards: usize,
    /// Queries per refresh.
    pub queries_per_refresh: usize,
    /// Median X-Small work per query, ms.
    pub median_work_ms: f64,
}

impl Default for BiWorkload {
    fn default() -> Self {
        Self {
            peak_refreshes_per_hour: 40.0,
            base_refreshes_per_hour: 1.0,
            dashboards: 8,
            queries_per_refresh: 5,
            median_work_ms: 8_000.0,
        }
    }
}

impl WorkloadGenerator for BiWorkload {
    fn name(&self) -> &str {
        "bi"
    }

    fn generate(
        &self,
        start: SimTime,
        end: SimTime,
        ids: &mut IdAllocator,
        rng: &mut StdRng,
    ) -> Vec<QuerySpec> {
        let rate = diurnal_rate(self.base_refreshes_per_hour, self.peak_refreshes_per_hour);
        let refreshes = poisson_arrivals(
            start,
            end,
            self.peak_refreshes_per_hour
                .max(self.base_refreshes_per_hour),
            rate,
            rng,
        );
        let mut out = Vec::new();
        for at in refreshes {
            let dash = rng.gen_range(0..self.dashboards) as u64;
            for q in 0..self.queries_per_refresh {
                let template = QueryTemplate::new(
                    splitmix64(0xB1 ^ dash << 8 ^ q as u64),
                    self.median_work_ms,
                )
                .with_cache_affinity(0.95)
                .with_scale_exponent(0.8)
                .with_work_sigma(0.4);
                // Queries in one refresh land within a couple of seconds.
                let jitter = rng.gen_range(0..2 * SECOND_MS);
                out.push(template.instantiate(ids, rng, at + jitter));
            }
        }
        sort_by_arrival(out)
    }
}

// ---------------------------------------------------------------------------
// Ad-hoc analytics
// ---------------------------------------------------------------------------

/// Unpredictable analyst traffic: heavy-tailed work, day-to-day load that
/// swings by multiples (drawn per day), and a month-end crunch. This is the
/// "less predictable workload" warehouse of Fig. 4a, whose credit usage
/// "fluctuates more than other warehouses".
#[derive(Debug, Clone)]
pub struct AdhocWorkload {
    /// Average queries per hour on a typical day, before the daily swing.
    pub mean_rate_per_hour: f64,
    /// Log-space sigma of the per-day load multiplier (bigger = wilder).
    pub daily_swing_sigma: f64,
    /// Median X-Small work per query, ms.
    pub median_work_ms: f64,
    /// Log-space sigma of per-query work (heavy tail).
    pub work_sigma: f64,
    /// Month-end multiplier applied to the last 3 days of each 30-day cycle.
    pub month_end_factor: f64,
    /// Distinct query shapes analysts tend to re-run.
    pub templates: usize,
}

impl Default for AdhocWorkload {
    fn default() -> Self {
        Self {
            mean_rate_per_hour: 12.0,
            daily_swing_sigma: 0.7,
            median_work_ms: 25_000.0,
            work_sigma: 1.0,
            month_end_factor: 3.0,
            templates: 30,
        }
    }
}

impl WorkloadGenerator for AdhocWorkload {
    fn name(&self) -> &str {
        "adhoc"
    }

    fn generate(
        &self,
        start: SimTime,
        end: SimTime,
        ids: &mut IdAllocator,
        rng: &mut StdRng,
    ) -> Vec<QuerySpec> {
        // Draw one load multiplier per day, deterministically from the seed.
        let first_day = start / DAY_MS;
        let last_day = end.div_ceil(DAY_MS);
        let day_multipliers: Vec<f64> = (first_day..last_day)
            .map(|_| {
                let z = crate::template::sample_standard_normal(rng);
                (self.daily_swing_sigma * z).exp()
            })
            .collect();
        let day_mult = |t: SimTime| -> f64 {
            let idx = (t / DAY_MS - first_day) as usize;
            day_multipliers.get(idx).copied().unwrap_or(1.0)
        };
        let max_mult = day_multipliers.iter().fold(1.0f64, |a, &b| a.max(b));
        let max_rate = self.mean_rate_per_hour * max_mult * self.month_end_factor * 2.0;
        // Mild diurnality: analysts work daytime, rate halves at night.
        let shape = |t: SimTime| {
            let hod = cdw_sim::time::hour_of_day(t);
            if (8.0..20.0).contains(&hod) {
                1.0
            } else {
                0.25
            }
        };
        let arrivals = poisson_arrivals(
            start,
            end,
            max_rate,
            |t| {
                self.mean_rate_per_hour
                    * day_mult(t)
                    * month_end_multiplier(t, 3, self.month_end_factor)
                    * shape(t)
            },
            rng,
        );
        let mut out = Vec::new();
        for at in arrivals {
            let tpl = rng.gen_range(0..self.templates) as u64;
            // Analysts scan varied, rarely re-visited data: low cache reuse.
            let template = QueryTemplate::new(splitmix64(0xAD0C ^ tpl), self.median_work_ms)
                .with_cache_affinity(0.3)
                .with_scale_exponent(0.9)
                .with_work_sigma(self.work_sigma);
            out.push(template.instantiate(ids, rng, at));
        }
        sort_by_arrival(out)
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Periodic report batches (e.g. a morning report run), tolerant of longer
/// latencies. Daily batches of medium-weight queries.
#[derive(Debug, Clone)]
pub struct ReportingWorkload {
    /// Hour of day each batch fires.
    pub batch_hour: u64,
    /// Queries per batch.
    pub queries_per_batch: usize,
    /// Median X-Small work per query, ms.
    pub median_work_ms: f64,
}

impl Default for ReportingWorkload {
    fn default() -> Self {
        Self {
            batch_hour: 6,
            queries_per_batch: 20,
            median_work_ms: 45_000.0,
        }
    }
}

impl WorkloadGenerator for ReportingWorkload {
    fn name(&self) -> &str {
        "reporting"
    }

    fn generate(
        &self,
        start: SimTime,
        end: SimTime,
        ids: &mut IdAllocator,
        rng: &mut StdRng,
    ) -> Vec<QuerySpec> {
        let offset = self.batch_hour * HOUR_MS;
        let batches = scheduled_arrivals(start, end, DAY_MS, offset, 2 * MINUTE_MS, rng);
        let mut out = Vec::new();
        for batch_start in batches {
            for q in 0..self.queries_per_batch {
                let template =
                    QueryTemplate::new(splitmix64(0x4E9 ^ q as u64), self.median_work_ms)
                        .with_cache_affinity(0.4)
                        .with_scale_exponent(1.0)
                        .with_work_sigma(0.2);
                // Reports submit in quick succession; the scheduler fans
                // them out.
                let at = batch_start + (q as u64) * 2 * SECOND_MS;
                out.push(template.instantiate(ids, rng, at));
            }
        }
        sort_by_arrival(out)
    }
}

/// Convenience: generate with a fresh seeded RNG and id space.
pub fn generate_trace(
    gen: &dyn WorkloadGenerator,
    start: SimTime,
    end: SimTime,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut ids = IdAllocator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    gen.generate(start, end, &mut ids, &mut rng)
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;

    fn daily_counts(qs: &[QuerySpec], days: u64) -> Vec<usize> {
        let mut counts = vec![0usize; days as usize];
        for q in qs {
            let d = (q.arrival / DAY_MS) as usize;
            if d < counts.len() {
                counts[d] += 1;
            }
        }
        counts
    }

    #[test]
    fn generators_are_deterministic() {
        for g in [
            Box::new(EtlWorkload::default()) as Box<dyn WorkloadGenerator>,
            Box::new(BiWorkload::default()),
            Box::new(AdhocWorkload::default()),
            Box::new(ReportingWorkload::default()),
        ] {
            let a = generate_trace(g.as_ref(), 0, 2 * DAY_MS, 42);
            let b = generate_trace(g.as_ref(), 0, 2 * DAY_MS, 42);
            assert_eq!(a, b, "{} not deterministic", g.name());
            assert!(!a.is_empty(), "{} generated nothing", g.name());
        }
    }

    #[test]
    fn traces_are_sorted_with_unique_ids() {
        let qs = generate_trace(&BiWorkload::default(), 0, 3 * DAY_MS, 7);
        assert!(qs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let ids: std::collections::HashSet<u64> = qs.iter().map(|q| q.id).collect();
        assert_eq!(ids.len(), qs.len());
    }

    #[test]
    fn etl_is_predictable_day_to_day() {
        let qs = generate_trace(&EtlWorkload::default(), 0, 7 * DAY_MS, 1);
        let counts = daily_counts(&qs, 7);
        let mean = counts.iter().sum::<usize>() as f64 / 7.0;
        for c in &counts {
            assert!(
                (*c as f64 - mean).abs() / mean < 0.05,
                "ETL daily counts should be near-constant: {counts:?}"
            );
        }
    }

    #[test]
    fn adhoc_fluctuates_more_than_etl() {
        let cv = |counts: &[usize]| {
            let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64;
            var.sqrt() / mean
        };
        let etl = daily_counts(
            &generate_trace(&EtlWorkload::default(), 0, 14 * DAY_MS, 3),
            14,
        );
        let adhoc = daily_counts(
            &generate_trace(&AdhocWorkload::default(), 0, 14 * DAY_MS, 3),
            14,
        );
        assert!(
            cv(&adhoc) > 3.0 * cv(&etl),
            "adhoc CV {} should dwarf ETL CV {}",
            cv(&adhoc),
            cv(&etl)
        );
    }

    #[test]
    fn bi_concentrates_in_business_hours() {
        let qs = generate_trace(&BiWorkload::default(), 0, 5 * DAY_MS, 11);
        let business: usize = qs
            .iter()
            .filter(|q| {
                let h = cdw_sim::time::hour_of_day(q.arrival);
                (9.0..17.0).contains(&h)
            })
            .count();
        assert!(
            business as f64 / qs.len() as f64 > 0.8,
            "{} of {} in business hours",
            business,
            qs.len()
        );
    }

    #[test]
    fn bi_queries_are_cache_hungry() {
        let qs = generate_trace(&BiWorkload::default(), 0, DAY_MS, 1);
        assert!(qs.iter().all(|q| q.cache_affinity > 0.9));
    }

    #[test]
    fn reporting_fires_once_a_day_at_the_batch_hour() {
        let w = ReportingWorkload::default();
        let qs = generate_trace(&w, 0, 3 * DAY_MS, 5);
        assert_eq!(qs.len(), 3 * w.queries_per_batch);
        for q in &qs {
            let h = cdw_sim::time::hour_of_day(q.arrival);
            assert!((h - 6.0).abs() < 0.5, "batch at hour {h}");
        }
    }

    #[test]
    fn month_end_spike_increases_adhoc_volume() {
        let w = AdhocWorkload {
            daily_swing_sigma: 0.0, // isolate the month-end effect
            ..AdhocWorkload::default()
        };
        let qs = generate_trace(&w, 0, 30 * DAY_MS, 9);
        let counts = daily_counts(&qs, 30);
        let normal: f64 = counts[5..20].iter().sum::<usize>() as f64 / 15.0;
        let spike: f64 = counts[27..30].iter().sum::<usize>() as f64 / 3.0;
        assert!(
            spike > 2.0 * normal,
            "month-end {spike} should exceed 2x normal {normal}"
        );
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = generate_trace(&AdhocWorkload::default(), 0, DAY_MS, 1);
        let b = generate_trace(&AdhocWorkload::default(), 0, DAY_MS, 2);
        assert_ne!(a, b);
    }
}
