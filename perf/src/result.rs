//! The result of one benchmark run, as written to result files.
//!
//! A result file is JSONL: one [`RunResult`] per line, appended, so a file
//! holds a set of runs (several seeds, several repeats) and is never
//! overwritten — it is the trajectory `perf compare` reads.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which `rand` / `serde` / `serde_json` this build links: the registry
/// crates, or the stand-ins `offline/cargo-config.toml` swaps in (that file
/// sets `PERF_DEPS` for the compiler). The generator and the JSON codec are
/// part of what is measured, so the two kinds of build are never compared.
pub const DEPS: &str = match option_env!("PERF_DEPS") {
    Some(deps) => deps,
    None => "registry",
};

/// Everything that must match before two runs may be compared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    pub git_sha: String,
    pub rustc: String,
    /// [`DEPS`] of the binary that ran.
    pub deps: String,
    pub host_cpus: usize,
    pub pool_width: usize,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    /// The workload's shape, e.g. `{"tenants": 12, "sim_days": 7}`.
    pub sizes: BTreeMap<String, u64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub manifest: Manifest,
    /// Every correctness check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
    /// Fold of the run's decisions and credit figures; equal digests mean
    /// the system behaved identically, not merely as fast.
    pub digest: String,
    /// Numbers that are not metrics: sample counts behind each percentile,
    /// further percentiles, round counts.
    pub info: BTreeMap<String, f64>,
    pub checks: Vec<Check>,
}

impl RunResult {
    /// The last line a run prints: the keys the benchmark contract fixes,
    /// and no others.
    pub fn contract_line(&self) -> String {
        let metrics =
            serde_json::to_string(&self.metrics).expect("in-memory serialisation cannot fail");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Parses a result file. Blank lines are skipped; a malformed line is an
/// error naming its line number.
pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}
