//! Query templates: the recurring query shapes a warehouse serves.
//!
//! A template plays the role of the paper's "query template (query text
//! stripped of all constants)" (§5.2 fn. 4): queries instantiated from the
//! same template share a `template_hash` and differ in their `text_hash`
//! (standing in for different literal bindings) and sampled work.

use cdw_sim::mix::splitmix64;
use cdw_sim::{QuerySpec, SimTime};
use rand::Rng;
use rand_distr_free::sample_lognormal;
use serde::{Deserialize, Serialize};

/// Monotone id allocator shared by generators so ids never collide across
/// workloads targeting the same account.
#[derive(Debug, Default, Clone)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts allocating at `from` (to partition id spaces manually).
    pub fn starting_at(from: u64) -> Self {
        Self { next: from }
    }

    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// A recurring query shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Stable template hash (what telemetry exposes instead of text).
    pub template_hash: u64,
    /// Median execution time on a warm X-Small, in ms.
    pub median_work_ms: f64,
    /// Log-normal sigma of the work distribution (0 = deterministic).
    pub work_sigma: f64,
    /// Bytes scanned per ms of X-Small work (so bigger queries scan more).
    pub bytes_per_work_ms: u64,
    /// Cache affinity in [0, 1] for instantiated queries.
    pub cache_affinity: f64,
    /// Scale exponent for instantiated queries.
    pub scale_exponent: f64,
}

impl QueryTemplate {
    /// A template with the given hash and median work, defaulting to a
    /// moderately cache-sensitive, well-scaling query.
    pub fn new(template_hash: u64, median_work_ms: f64) -> Self {
        Self {
            template_hash,
            median_work_ms,
            work_sigma: 0.3,
            bytes_per_work_ms: 1 << 20, // ~1 MiB of scan per ms of work
            cache_affinity: 0.5,
            scale_exponent: 1.0,
        }
    }

    pub fn with_cache_affinity(mut self, a: f64) -> Self {
        self.cache_affinity = a.clamp(0.0, 1.0);
        self
    }

    pub fn with_scale_exponent(mut self, e: f64) -> Self {
        self.scale_exponent = e.clamp(0.0, 1.5);
        self
    }

    pub fn with_work_sigma(mut self, s: f64) -> Self {
        self.work_sigma = s.max(0.0);
        self
    }

    /// Instantiates a concrete query arriving at `arrival`.
    pub fn instantiate(
        &self,
        ids: &mut IdAllocator,
        rng: &mut impl Rng,
        arrival: SimTime,
    ) -> QuerySpec {
        let id = ids.next_id();
        let work = sample_lognormal(rng, self.median_work_ms, self.work_sigma);
        // The text hash mixes the template with the sampled instance so
        // identical literals hash identically and different ones do not.
        let text_hash = splitmix64(self.template_hash ^ splitmix64(id));
        QuerySpec::builder(id)
            .template_hash(self.template_hash)
            .text_hash(text_hash)
            .work_ms_xs(work)
            .bytes_scanned((work * self.bytes_per_work_ms as f64) as u64)
            .cache_affinity(self.cache_affinity)
            .scale_exponent(self.scale_exponent)
            .arrival_ms(arrival)
            .build()
    }
}

/// Minimal log-normal sampling without the `rand_distr` crate: median `m`
/// and log-space sigma, via Box–Muller.
mod rand_distr_free {
    use rand::Rng;

    pub fn sample_lognormal(rng: &mut impl Rng, median: f64, sigma: f64) -> f64 {
        // Exact-zero sigma is the degenerate-distribution sentinel.
        if sigma == 0.0 {
            return median;
        }
        let z = sample_standard_normal(rng);
        median * (sigma * z).exp()
    }

    pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
        // Box–Muller; u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

pub use rand_distr_free::sample_standard_normal;

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn id_allocator_is_monotone() {
        let mut ids = IdAllocator::new();
        assert_eq!(ids.next_id(), 0);
        assert_eq!(ids.next_id(), 1);
        let mut from = IdAllocator::starting_at(100);
        assert_eq!(from.next_id(), 100);
    }

    #[test]
    fn instantiate_preserves_template_identity() {
        let t = QueryTemplate::new(42, 5_000.0).with_cache_affinity(0.9);
        let mut ids = IdAllocator::new();
        let mut rng = StdRng::seed_from_u64(1);
        let q = t.instantiate(&mut ids, &mut rng, 10_000);
        assert_eq!(q.template_hash, 42);
        assert_eq!(q.arrival, 10_000);
        assert_eq!(q.cache_affinity, 0.9);
        assert!(q.work_ms_xs > 0.0);
    }

    #[test]
    fn different_instances_get_different_text_hashes() {
        let t = QueryTemplate::new(42, 5_000.0);
        let mut ids = IdAllocator::new();
        let mut rng = StdRng::seed_from_u64(1);
        let a = t.instantiate(&mut ids, &mut rng, 0);
        let b = t.instantiate(&mut ids, &mut rng, 0);
        assert_ne!(a.text_hash, b.text_hash);
        assert_eq!(a.template_hash, b.template_hash);
    }

    #[test]
    fn zero_sigma_makes_work_deterministic() {
        let t = QueryTemplate::new(1, 3_000.0).with_work_sigma(0.0);
        let mut ids = IdAllocator::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let q = t.instantiate(&mut ids, &mut rng, 0);
            assert_eq!(q.work_ms_xs, 3_000.0);
        }
    }

    #[test]
    fn lognormal_median_is_approximately_right() {
        let t = QueryTemplate::new(1, 10_000.0).with_work_sigma(0.5);
        let mut ids = IdAllocator::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut works: Vec<f64> = (0..2001)
            .map(|_| t.instantiate(&mut ids, &mut rng, 0).work_ms_xs)
            .collect();
        works.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = works[works.len() / 2];
        assert!(
            (median / 10_000.0 - 1.0).abs() < 0.1,
            "sample median {median} should be near 10000"
        );
    }

    #[test]
    fn bytes_scanned_scale_with_work() {
        let t = QueryTemplate::new(1, 1_000.0).with_work_sigma(0.0);
        let mut ids = IdAllocator::new();
        let mut rng = StdRng::seed_from_u64(1);
        let q = t.instantiate(&mut ids, &mut rng, 0);
        assert_eq!(q.bytes_scanned, 1_000 * (1 << 20));
    }

    #[test]
    fn splitmix_distributes_bits() {
        // Not a statistical test; just confirm distinct inputs map to
        // distinct outputs in a small probe.
        let outs: std::collections::HashSet<u64> = (0..1000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
    }

    #[test]
    fn standard_normal_has_roughly_zero_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| sample_standard_normal(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
