//! CLI driver for the kwo-lint engine.
//!
//! ```text
//! kwo-lint [--root DIR] [--baseline FILE] [--format text|json|github]
//!          [--json FILE] [--write-baseline] [--smoke] [--quiet]
//! ```
//!
//! Modes:
//! * default — lint the workspace; with `--baseline`, gate against the
//!   ratcheted baseline (exit 1 on new violations or on entries the tree
//!   has ratcheted past), otherwise exit 1 on any diagnostic;
//! * `--write-baseline` — freeze today's diagnostics into the baseline file
//!   (placeholder reasons; edit before committing);
//! * `--smoke` — run the engine over its own fixture corpus and verify every
//!   `//~ Dn` expectation marker (engine self-check for CI).
//!
//! Output formats (`--format`, default `text`):
//! * `text` — `file:line:col: Dn (name) \`snippet\` — message`, one per
//!   line; the shape `.github/kwo-lint-problem-matcher.json` matches so CI
//!   findings annotate PR diffs;
//! * `json` — the machine-readable report on stdout;
//! * `github` — GitHub Actions `::error` workflow commands (direct
//!   annotations without a matcher).
//!
//! `--json FILE` additionally writes the machine-readable report to a file
//! in every mode.

use lint::{check_baseline, freeze, run_fixtures, to_json, Baseline, Diagnostic};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Github,
}

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    json: Option<PathBuf>,
    format: Format,
    write_baseline: bool,
    smoke: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        baseline: None,
        json: None,
        format: Format::Text,
        write_baseline: false,
        smoke: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = next_value(&mut it, "--root")?.into(),
            "--baseline" => args.baseline = Some(next_value(&mut it, "--baseline")?.into()),
            "--json" => args.json = Some(next_value(&mut it, "--json")?.into()),
            "--format" => {
                args.format = match next_value(&mut it, "--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "github" => Format::Github,
                    other => {
                        return Err(format!(
                            "unknown format `{other}` (expected text, json, or github)"
                        ))
                    }
                }
            }
            "--write-baseline" => args.write_baseline = true,
            "--smoke" => args.smoke = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "kwo-lint: determinism, numeric-safety & concurrency lints (D1-D8, D10-D12)\n\
                     usage: kwo-lint [--root DIR] [--baseline FILE] [--format text|json|github]\n\
                     \x20      [--json FILE] [--write-baseline] [--smoke] [--quiet]"
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

/// Prints diagnostics in the selected format (suppressed by `--quiet`,
/// except `json` which exists to be piped).
fn emit(diags: &[Diagnostic], args: &Args) {
    match args.format {
        Format::Json => println!("{}", to_json(diags)),
        Format::Text if !args.quiet => {
            for d in diags {
                println!("{}", d.render());
            }
        }
        Format::Github if !args.quiet => {
            for d in diags {
                // GitHub workflow commands treat %, CR, and LF as
                // terminators; diagnostics are single-line, escape anyway.
                let msg = format!("{} ({}) `{}` — {}", d.rule, d.name, d.snippet, d.message)
                    .replace('%', "%25")
                    .replace('\r', "%0D")
                    .replace('\n', "%0A");
                println!(
                    "::error file={},line={},col={}::{}",
                    d.file, d.line, d.col, msg
                );
            }
        }
        _ => {}
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

    if args.write_baseline {
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(|| args.root.join("lint-baseline.toml"));
        std::fs::write(&path, freeze(&diags).write())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!(
            "kwo-lint: froze {} diagnostic(s) into {} — edit the TODO reasons before committing",
            diags.len(),
            path.display()
        );
        return Ok(true);
    }

    let baseline = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Baseline::parse(&text).map_err(|e| e.to_string())?
        }
        None => Baseline::default(),
    };
    let gate = check_baseline(&diags, &baseline);

    emit(&diags, args);
    if gate.passed() {
        if args.format != Format::Json {
            println!(
                "kwo-lint: OK — {} diagnostic(s), all within the {}-entry baseline",
                diags.len(),
                baseline.len()
            );
        }
        Ok(true)
    } else {
        for f in &gate.failures {
            eprintln!("kwo-lint: FAIL — {f}");
        }
        eprintln!(
            "kwo-lint: {} gate failure(s); fix the violation(s), justify with \
             `// lint: allow(Dn) — reason`, or shrink the ratcheted baseline",
            gate.failures.len()
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
        if args.format == Format::Json {
            println!("{}", to_json(&report.diags));
        } else {
            println!(
                "kwo-lint --smoke: OK — {} diagnostic(s) over the fixture corpus, every marker matched",
                report.diags.len()
            );
        }
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
