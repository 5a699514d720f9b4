//! Runs the built binary over all four workloads at smoke size, untraced
//! and traced, and holds the output to the catalogue.

use perf::catalog::Benchmark;
use perf::result::{parse_results, RunResult};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn smoke_all(traced: bool) -> Vec<RunResult> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{traced}.jsonl"));
    let _ = std::fs::remove_file(&out);
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--all", "--smoke", "--seed", "7919", "--trace"])
        .arg(if traced { "1" } else { "0" })
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perf binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "perf run --all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("SMOKE"), "smoke results are stamped");
    parse_results(&std::fs::read_to_string(&out).unwrap()).unwrap()
}

#[test]
fn smoke_runs_emit_exactly_the_catalogue_and_pass_every_check() {
    let bench = Benchmark::load();
    let plain = smoke_all(false);
    let traced = smoke_all(true);

    for (results, is_traced) in [(&plain, false), (&traced, true)] {
        let ran: Vec<&str> = results.iter().map(|r| r.workload.as_str()).collect();
        let named: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(ran, named, "one result per workload, in catalogue order");

        let expected: BTreeSet<&str> = bench
            .metrics_for(is_traced)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        for r in results.iter() {
            assert_eq!(r.traced, is_traced);
            assert!(r.manifest.smoke && r.manifest.seed == 7919);
            let failed: Vec<_> = r.checks.iter().filter(|c| !c.ok).collect();
            assert!(r.correct && failed.is_empty(), "{}: {failed:?}", r.workload);
            assert!(r.attempted >= 1 && r.failed == 0, "{}", r.workload);
            let got: BTreeSet<&str> = r.metrics.keys().map(String::as_str).collect();
            assert_eq!(got, expected, "{}", r.workload);
            for def in bench.metrics_for(is_traced) {
                let m = &r.metrics[&def.name];
                assert_eq!(m.unit, def.unit, "{}", def.name);
                assert!(m.value.is_finite(), "{} on {}", def.name, r.workload);
                if !is_traced {
                    assert!(m.value > 0.0, "{} on {}", def.name, r.workload);
                }
            }
        }
    }

    // Tracing perturbs nothing: same seed, same digest, traced or not.
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.digest, t.digest, "{}", p.workload);
    }
    // Persistence perturbs nothing either: same shape, same decisions.
    let digest = |name: &str| &plain.iter().find(|r| r.workload == name).unwrap().digest;
    assert_eq!(digest("fleet_steady"), digest("fleet_durable"));
}

#[test]
fn list_names_every_workload_and_metric() {
    let bench = Benchmark::load();
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("list")
        .output()
        .expect("perf binary runs");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    for w in &bench.workloads {
        assert!(text.contains(&w.name), "{}", w.name);
    }
    for m in bench.end_to_end.iter().chain(&bench.per_layer) {
        assert!(text.contains(&m.name), "{}", m.name);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["run", "--all", "--workload", "fleet_steady"],
        &["compare", "only-one"],
        &["frobnicate"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("perf binary runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
