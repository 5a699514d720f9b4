//! Structured-fuzz campaign driver for the simulator verification subsystem.
//!
//! Runs seed-driven randomized ALTER/query/advance schedules through the
//! public `cdw-sim` API with per-event invariant checks and the
//! differential billing oracle (see the `verify` crate). Any failure is
//! shrunk to a minimal genome and written to `FUZZ_repro.json` so CI can
//! upload it as an artifact; the process then exits non-zero.
//!
//! Usage: `fuzz [--smoke] [--seed N] [--cases N]` — `--smoke` runs the
//! bounded CI configuration (256 cases); the default campaign is 2048
//! cases. `--seed` sets the first seed (default 0); seeds are consumed
//! sequentially so any failure is reproducible from its reported seed
//! alone.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::header;
use serde::Serialize;
use std::time::Instant;
use verify::{run_campaign, CampaignReport, FuzzConfig};

#[derive(Serialize)]
struct FuzzOutput {
    smoke: bool,
    start_seed: u64,
    cases: usize,
    wall_secs: f64,
    cases_per_sec: f64,
    ops_applied: usize,
    events_processed: u64,
    completed_queries: usize,
    failure_count: usize,
    oracle_checks: u64,
    oracle_divergences: u64,
    invariant_violations: u64,
}

fn counter(snapshot: &keebo::MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn main() {
    let smoke = bench::args::flag("--smoke");
    let start_seed = bench::args::value("--seed").unwrap_or(0);
    let cases = bench::args::value("--cases").unwrap_or(if smoke { 256 } else { 2048 });
    let cfg = FuzzConfig::default();
    header(&format!(
        "fuzz campaign: {cases} cases from seed {start_seed} \
         ({} bytes/case, up to {} ops){}",
        cfg.bytes_per_case,
        cfg.max_ops,
        if smoke { " [smoke]" } else { "" }
    ));

    #[expect(
        clippy::disallowed_methods,
        reason = "campaign wall time is only reported, never decided on"
    )]
    let start = Instant::now();
    let report: CampaignReport = run_campaign(start_seed, cases, &cfg);
    let wall = start.elapsed().as_secs_f64();

    let snapshot = keebo::obs::global().snapshot();
    let out = FuzzOutput {
        smoke,
        start_seed,
        cases: report.cases,
        wall_secs: wall,
        cases_per_sec: report.cases as f64 / wall.max(1e-9),
        ops_applied: report.ops_applied,
        events_processed: report.events_processed,
        completed_queries: report.completed_queries,
        failure_count: report.failure_count,
        oracle_checks: counter(&snapshot, "verify.oracle.checks"),
        oracle_divergences: counter(&snapshot, "verify.oracle.divergence"),
        invariant_violations: counter(&snapshot, "verify.invariant.violation"),
    };
    println!(
        "{} cases in {:.2}s ({:.0}/s): {} ops, {} events, {} queries, {} failures",
        out.cases,
        wall,
        out.cases_per_sec,
        out.ops_applied,
        out.events_processed,
        out.completed_queries,
        out.failure_count
    );
    bench::report::write_json("BENCH_fuzz.json", &out);

    if report.failure_count > 0 {
        // Persist every shrunk repro (seed, kind, minimized genome hex,
        // decoded case) so a CI artifact is enough to replay the failure
        // locally with `verify::fuzz_one(seed, &FuzzConfig::default())`.
        bench::report::write_json("FUZZ_repro.json", &report.failures);
        for f in &report.failures {
            eprintln!(
                "FAIL seed {} [{}]: {} (genome {} -> {} bytes)",
                f.seed, f.kind, f.message, f.original_len, f.shrunk_len
            );
        }
        eprintln!(
            "wrote FUZZ_repro.json with {} shrunk repro(s)",
            report.failure_count
        );
        std::process::exit(1);
    }
    println!("no invariant violations, no oracle divergences, no panics");
}
