//! Composite workloads: several generators feeding one warehouse.
//!
//! Real warehouses often serve hybrid traffic (the paper's C5 calls out
//! "hybrid or even homegrown and highly custom applications"); the mixer
//! merges component traces into one arrival-ordered stream.

use crate::generators::WorkloadGenerator;
use crate::template::IdAllocator;
use cdw_sim::{QuerySpec, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named mix of workload generators.
pub struct MixedWorkload {
    name: String,
    parts: Vec<Box<dyn WorkloadGenerator>>,
}

impl MixedWorkload {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            parts: Vec::new(),
        }
    }

    /// Adds a component generator.
    pub fn with(mut self, gen: impl WorkloadGenerator + 'static) -> Self {
        self.parts.push(Box::new(gen));
        self
    }

    /// Number of component generators.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl WorkloadGenerator for MixedWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(
        &self,
        start: SimTime,
        end: SimTime,
        ids: &mut IdAllocator,
        rng: &mut StdRng,
    ) -> Vec<QuerySpec> {
        let mut out = Vec::new();
        for part in &self.parts {
            // Derive an independent RNG per component so adding a component
            // does not perturb the others' streams.
            let mut part_rng = StdRng::seed_from_u64(rng.gen());
            out.extend(part.generate(start, end, ids, &mut part_rng));
        }
        out.sort_by_key(|q| (q.arrival, q.id));
        out
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::generators::{generate_trace, BiWorkload, EtlWorkload};
    use cdw_sim::DAY_MS;

    #[test]
    fn mix_contains_all_components() {
        let mix = MixedWorkload::new("hybrid")
            .with(EtlWorkload::default())
            .with(BiWorkload::default());
        assert_eq!(mix.len(), 2);
        let qs = generate_trace(&mix, 0, DAY_MS, 42);
        let etl_only = generate_trace(&EtlWorkload::default(), 0, DAY_MS, 42);
        assert!(
            qs.len() > etl_only.len(),
            "mix adds BI volume on top of ETL"
        );
    }

    #[test]
    fn mix_is_sorted_and_deterministic() {
        let mix = MixedWorkload::new("hybrid")
            .with(EtlWorkload::default())
            .with(BiWorkload::default());
        let a = generate_trace(&mix, 0, DAY_MS, 7);
        let b = generate_trace(&mix, 0, DAY_MS, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn ids_are_unique_across_components() {
        let mix = MixedWorkload::new("hybrid")
            .with(EtlWorkload::default())
            .with(BiWorkload::default());
        let qs = generate_trace(&mix, 0, DAY_MS, 7);
        let ids: std::collections::HashSet<u64> = qs.iter().map(|q| q.id).collect();
        assert_eq!(ids.len(), qs.len());
    }

    #[test]
    fn empty_mix_generates_nothing() {
        let mix = MixedWorkload::new("empty");
        assert!(mix.is_empty());
        let qs = generate_trace(&mix, 0, DAY_MS, 1);
        assert!(qs.is_empty());
    }
}
