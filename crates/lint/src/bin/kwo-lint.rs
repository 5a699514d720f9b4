//! CLI driver for the kwo-lint engine.
//!
//! ```text
//! kwo-lint [--root DIR] [--json FILE] [--smoke]
//! ```
//!
//! Modes:
//! * default — lint the workspace; exit 1 on any diagnostic not covered by
//!   an inline `// lint: allow(Dn) — reason`;
//! * `--smoke` — run the engine over its own fixture corpus and verify every
//!   `//~ Dn` expectation marker (engine self-check for CI).
//!
//! Diagnostics print as `file:line:col: Dn (name) \`snippet\` — message`,
//! one per line: the shape
//! `.github/kwo-lint-problem-matcher.json` matches so CI findings annotate
//! PR diffs. `--json FILE` additionally writes the machine-readable report
//! to a file in either mode.

use lint::{run_fixtures, to_json};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = next_value(&mut it, "--root")?.into(),
            "--json" => args.json = Some(next_value(&mut it, "--json")?.into()),
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "kwo-lint: determinism, numeric-safety & concurrency lints (D4, D11, D12)\n\
                     usage: kwo-lint [--root DIR] [--json FILE] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kwo-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("kwo-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    if args.smoke {
        return run_smoke(args);
    }

    let diags = lint::lint_workspace(&args.root).map_err(|e| format!("walking workspace: {e}"))?;
    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&diags)).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    for d in &diags {
        println!("{}", d.render());
    }
    if diags.is_empty() {
        println!("kwo-lint: OK — 0 diagnostics");
        Ok(true)
    } else {
        eprintln!(
            "kwo-lint: FAIL — {} diagnostic(s); fix the violation(s) or justify each with \
             `// lint: allow(Dn) — reason`",
            diags.len()
        );
        Ok(false)
    }
}

fn run_smoke(args: &Args) -> Result<bool, String> {
    let dir = args.root.join("crates/lint/tests/fixtures");
    let report = run_fixtures(&dir).map_err(|e| format!("reading fixtures at {dir:?}: {e}"))?;
    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&report.diags))
            .map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    if report.passed() {
        println!(
            "kwo-lint --smoke: OK — {} diagnostic(s) over the fixture corpus, every marker matched",
            report.diags.len()
        );
        Ok(true)
    } else {
        for miss in &report.missed {
            eprintln!("kwo-lint --smoke: MISSED {miss}");
        }
        for unexp in &report.unexpected {
            eprintln!("kwo-lint --smoke: UNEXPECTED {unexp}");
        }
        Ok(false)
    }
}
