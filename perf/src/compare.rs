//! `perf compare <a> <b>`: judges candidate runs `b` against baseline runs
//! `a` with the bounds `BENCHMARK.json` fixes.
//!
//! For every workload and end-to-end metric the untraced runs of each side
//! give a median and a spread (quartile distance over median). The verdict
//! follows the rule the benchmark is judged by:
//!
//! * spread within the bound: **regressed** when `b`'s median is worse than
//!   `a`'s by more than the bound, **improved** when better by more than
//!   the bound, otherwise **unchanged**;
//! * spread wider than the bound: the medians cannot resolve a difference
//!   of that size, so the verdict is **unresolved** — unless every run of
//!   one side beats every run of the other, which needs no statistics.
//!
//! Runs are only comparable when dependency kind (registry crates or the
//! offline stand-ins), smoke flag, sizes, pool width, run length and seed set
//! agree; anything else is refused, not guessed at. A changed
//! outcome digest is reported as "behaviour changed" and is not a failure:
//! a change may re-order float evaluation on purpose.

use crate::catalog::{Benchmark, MetricDef};
use crate::result::RunResult;
use crate::stats::{median, spread};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a_median: f64,
    pub b_median: f64,
    /// Relative change of the median, signed so that positive is worse.
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    pub bound: f64,
    pub runs: (usize, usize),
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose outcome digest differs between the sides or within
    /// one side, with the reason.
    pub behaviour_changes: Vec<String>,
    /// Why the files cannot be compared; when non-empty, `rows` is empty.
    pub refusals: Vec<String>,
}

impl Comparison {
    /// Whether the comparison should exit non-zero.
    pub fn failed(&self) -> bool {
        !self.refusals.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.refusals {
            out += &format!("refused: {r}\n");
        }
        if !self.rows.is_empty() {
            out += &format!(
                "{:<15} {:<28} {:>12} {:>12} {:>8} {:>7} {:>6} {:>5}  verdict\n",
                "workload", "metric", "a median", "b median", "worse", "spread", "bound", "runs"
            );
        }
        for r in &self.rows {
            out += &format!(
                "{:<15} {:<28} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>5.1}% {:>2}/{:<2}  {}\n",
                r.workload,
                format!("{} [{}]", r.metric, r.unit),
                r.a_median,
                r.b_median,
                r.worse_by * 100.0,
                r.spread * 100.0,
                r.bound * 100.0,
                r.runs.0,
                r.runs.1,
                r.verdict.label()
            );
        }
        for b in &self.behaviour_changes {
            out += &format!("behaviour changed: {b}\n");
        }
        out
    }
}

fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let lower = def.lower_is_better();
    let worse_by = if ma == 0.0 {
        0.0
    } else if lower {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let wide = spread(a).max(spread(b));
    // `x` strictly better than `y` under this metric's direction.
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let all = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)));
    let verdict = if wide > bound {
        if all(b, a) {
            Verdict::Improved
        } else if all(a, b) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, wide, verdict)
}

/// What must agree across every run of a workload on both sides.
fn shape(r: &RunResult) -> String {
    format!(
        "deps={} smoke={} seconds={} pool_width={} sizes={:?}",
        r.manifest.deps,
        r.manifest.smoke,
        r.manifest.seconds,
        r.manifest.pool_width,
        r.manifest.sizes
    )
}

pub fn compare<'a>(bench: &Benchmark, a: &'a [RunResult], b: &'a [RunResult]) -> Comparison {
    let mut out = Comparison::default();
    let workloads: BTreeSet<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    let of = |side: &'a [RunResult], w: &str| -> Vec<&'a RunResult> {
        side.iter().filter(|r| r.workload == w).collect()
    };

    for w in &workloads {
        let (ra, rb) = (of(a, w), of(b, w));
        if ra.is_empty() || rb.is_empty() {
            out.refusals
                .push(format!("{w}: present in only one of the two files"));
            continue;
        }
        let shapes: BTreeSet<String> = ra.iter().chain(&rb).map(|r| shape(r)).collect();
        if shapes.len() > 1 {
            let listed: Vec<String> = shapes.into_iter().collect();
            out.refusals.push(format!(
                "{w}: run manifests differ: {}",
                listed.join(" vs ")
            ));
        }
        let seeds =
            |rs: &[&RunResult]| -> BTreeSet<u64> { rs.iter().map(|r| r.manifest.seed).collect() };
        if seeds(&ra) != seeds(&rb) {
            out.refusals.push(format!(
                "{w}: seed sets differ: {:?} vs {:?}",
                seeds(&ra),
                seeds(&rb)
            ));
        }
        if let Some(bad) = ra.iter().chain(&rb).find(|r| !r.correct) {
            out.refusals.push(format!(
                "{w}: a run (seed {}) failed its correctness checks",
                bad.manifest.seed
            ));
        }
    }
    if !out.refusals.is_empty() {
        return out;
    }

    for w in &workloads {
        let (ra, rb) = (of(a, w), of(b, w));

        // Digests: one value per seed across both files, traced or not.
        let mut by_seed: BTreeMap<u64, (BTreeSet<&str>, BTreeSet<&str>)> = BTreeMap::new();
        for r in &ra {
            by_seed
                .entry(r.manifest.seed)
                .or_default()
                .0
                .insert(&r.digest);
        }
        for r in &rb {
            by_seed
                .entry(r.manifest.seed)
                .or_default()
                .1
                .insert(&r.digest);
        }
        for (seed, (da, db)) in by_seed {
            if da.len() > 1 || db.len() > 1 {
                out.behaviour_changes.push(format!(
                    "{w} seed {seed}: digests differ between runs of the same file ({da:?} / {db:?})"
                ));
            } else if da != db {
                out.behaviour_changes
                    .push(format!("{w} seed {seed}: digest {da:?} became {db:?}"));
            }
        }

        for def in &bench.end_to_end {
            let values = |rs: &[&RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| !r.traced)
                    .filter_map(|r| r.metrics.get(&def.name))
                    .map(|m| m.value)
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, wide, verdict) = judge(def, &va, &vb);
            out.rows.push(Row {
                workload: w.to_string(),
                metric: def.name.clone(),
                unit: def.unit.clone(),
                a_median: median(&va),
                b_median: median(&vb),
                worse_by,
                spread: wide,
                bound: def.bound.unwrap_or(0.0),
                runs: (va.len(), vb.len()),
                verdict,
            });
        }
    }
    out
}
