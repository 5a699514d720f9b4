//! `perf`: the KWO performance ledger's command line.
//!
//! ```text
//! perf run --workload <name>|--all [--seed N] [--seconds S] [--trace [0|1]]
//!          [--smoke] [--out <file>]
//! perf list
//! perf compare <a.jsonl> <b.jsonl>
//! perf calibrate        (what `run` spawns between drives; see `calib`)
//! ```
//!
//! `run` prints every metric by name with its unit, the sample counts behind
//! the percentiles, the run manifest and the correctness checks, appends
//! the full result to a JSONL file, and ends with the one-line JSON object
//! the benchmark contract asks for. It exits non-zero when a correctness
//! check fails. `--all` re-executes this binary once per workload, so
//! `peak_rss_mb` is per workload.

mod alloc;
mod calib;
mod probes;
mod run;
mod shape;
mod workloads;

use perf::catalog::Benchmark;
use perf::compare::compare;
use perf::result::{parse_results, RunResult};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when none is given; `7919` is the hold-out seed kept out of
/// development runs.
const DEFAULT_SEED: u64 = 1009;

const USAGE: &str = "usage:
  perf run --workload <name>|--all [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out <file>]
  perf list
  perf compare <a.jsonl> <b.jsonl>";

fn fail(msg: &str) -> ExitCode {
    eprintln!("perf: {msg}");
    ExitCode::from(2)
}

/// The parsed `run` arguments; with `--all`, `workload` is left empty.
fn parse_run(bench: &Benchmark, argv: &[String]) -> Result<(run::RunArgs, bool), String> {
    let mut all = false;
    let mut workload: Option<String> = None;
    let mut args = run::RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: bench.run_seconds,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--all" => all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a whole number".to_string())?;
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--trace" => {
                // `--trace` alone switches tracing on; `--trace 0|1` sets it.
                args.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, all) {
        (Some(_), true) => Err("--workload and --all exclude each other".into()),
        (None, false) => Err("give --workload <name> or --all".into()),
        (Some(w), false) if !bench.has_workload(&w) => {
            Err(format!("unknown workload {w}; `perf list` names them"))
        }
        (w, all) => {
            args.workload = w.unwrap_or_default();
            Ok((args, all))
        }
    }
}

fn print_result(bench: &Benchmark, r: &RunResult) {
    let m = &r.manifest;
    println!(
        "== {} ({}{}) seed {} — {} s budget",
        r.workload,
        if r.traced { "traced" } else { "untraced" },
        if m.smoke {
            ", SMOKE: not comparable with full runs"
        } else {
            ""
        },
        m.seed,
        m.seconds
    );
    println!(
        "manifest: git {} | {} | deps {} | host_cpus {} | pool_width {} | sizes {:?}",
        m.git_sha, m.rustc, m.deps, m.host_cpus, m.pool_width, m.sizes
    );
    for def in bench.metrics_for(r.traced) {
        if let Some(v) = r.metrics.get(&def.name) {
            let bound = def
                .bound
                .map_or(String::new(), |b| format!("  (bound {:.0}%)", b * 100.0));
            println!(
                "  {:<38} {:>16.4} {:<10} {} is better{bound}",
                def.name, v.value, v.unit, def.better
            );
        }
    }
    println!("digest: {}", r.digest);
    for (k, v) in &r.info {
        println!("  info {k:<38} {v:.4}");
    }
    for c in &r.checks {
        println!(
            "  check [{}] {} — {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
}

fn append_result(path: &PathBuf, r: &RunResult) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let line = serde_json::to_string(r).expect("in-memory serialisation cannot fail");
    writeln!(file, "{line}")
}

fn cmd_run(bench: &Benchmark, argv: &[String]) -> ExitCode {
    let (args, all) = match parse_run(bench, argv) {
        Ok(parsed) => parsed,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    if all {
        // One process per workload, so each has its own peak RSS.
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return fail(&format!("cannot find this executable: {e}")),
        };
        let rest: Vec<&String> = argv.iter().filter(|a| *a != "--all").collect();
        let mut ok = true;
        for w in &bench.workloads {
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", &w.name])
                .args(&rest)
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let result = run::run(bench, &args);
    print_result(bench, &result);
    let file = args
        .out
        .clone()
        .unwrap_or_else(|| run::out_dir().join("results.jsonl"));
    if let Err(e) = append_result(&file, &result) {
        eprintln!("perf: could not append to {}: {e}", file.display());
    }
    println!("{}", result.contract_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_list(bench: &Benchmark) -> ExitCode {
    println!("workloads (run_seconds {}):", bench.run_seconds);
    for w in &bench.workloads {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run):");
    for m in &bench.end_to_end {
        println!(
            "  {:<38} {:<10} {} is better, bound {:.0}%",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &bench.per_layer {
        println!("  {:<38} {:<10} {} is better", m.name, m.unit, m.better);
    }
    ExitCode::SUCCESS
}

fn cmd_compare(bench: &Benchmark, argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        return fail(&format!("compare takes two result files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Vec<RunResult>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_results(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let comparison = compare(bench, &a, &b);
    print!("{}", comparison.render());
    if comparison.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let bench = Benchmark::load();
    match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(&bench, rest),
        Some((cmd, _)) if cmd == "list" => cmd_list(&bench),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(&bench, rest),
        Some((cmd, _)) if cmd == "calibrate" => {
            println!("{}", calib::burst_ms());
            ExitCode::SUCCESS
        }
        _ => fail(USAGE),
    }
}
