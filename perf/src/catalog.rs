//! The benchmark definition, read from `BENCHMARK.json`.
//!
//! The file is compiled in, so the binary and the catalogue it reports
//! against cannot drift apart: a metric the binary emits but the file does
//! not name (or the reverse) fails the run and the self-test.

use serde::Deserialize;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

/// One metric of either list. `bound` is set on end-to-end metrics only:
/// the share of the baseline median by which the metric may worsen.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

impl MetricDef {
    pub fn lower_is_better(&self) -> bool {
        self.better == "lower"
    }
}

#[derive(Debug, Clone, Deserialize)]
pub struct Benchmark {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDef>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Benchmark {
    /// The compiled-in definition.
    ///
    /// # Panics
    /// Panics if the file does not parse — a build-time asset, so a broken
    /// one is a bug in this repository, not an input error.
    pub fn load() -> Self {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }

    /// The metrics one run must report: end-to-end with tracing off,
    /// per-layer with tracing on.
    pub fn metrics_for(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the benchmark contract puts on the file.
    #[test]
    fn benchmark_json_meets_the_contract() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let b = Benchmark::load();
        assert!((1..=32).contains(&b.command.len()));
        assert!(b
            .command
            .iter()
            .all(|a| a.len() <= 200 && !a.starts_with('/')));
        assert!((1..=16).contains(&b.paths.len()));
        assert!((1..=60).contains(&b.run_seconds));
        assert!((2..=8).contains(&b.workloads.len()));
        assert!((1..=16).contains(&b.end_to_end.len()));
        assert!((1..=128).contains(&b.per_layer.len()));

        let mut names = BTreeSet::new();
        for w in &b.workloads {
            assert!(name_ok(&w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name.clone()), "duplicate name {}", w.name);
        }
        for m in b.end_to_end.iter().chain(&b.per_layer) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(names.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        for m in &b.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(b.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = b.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.lower_is_better()));
    }
}
