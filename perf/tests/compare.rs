//! `perf compare` on synthetic result files.

use perf::catalog::Benchmark;
use perf::compare::{compare, Verdict};
use perf::result::{parse_results, Manifest, MetricValue, RunResult};
use std::collections::{BTreeMap, BTreeSet};

fn run(workload: &str, seed: u64, digest: &str, metrics: &[(&str, f64)]) -> RunResult {
    RunResult {
        workload: workload.to_string(),
        traced: false,
        manifest: Manifest {
            git_sha: "0000".into(),
            rustc: "rustc".into(),
            deps: "registry".into(),
            host_cpus: 2,
            pool_width: 1,
            seed,
            seconds: 25,
            smoke: false,
            sizes: [("tenants".to_string(), 12)].into_iter().collect(),
        },
        correct: true,
        attempted: 10,
        failed: 0,
        metrics: metrics
            .iter()
            .map(|(name, value)| {
                let unit = "x".to_string();
                (
                    name.to_string(),
                    MetricValue {
                        value: *value,
                        unit,
                    },
                )
            })
            .collect(),
        digest: digest.to_string(),
        info: BTreeMap::new(),
        checks: Vec::new(),
    }
}

/// Three runs of one workload whose throughput values are `values`.
fn side(values: [f64; 3]) -> Vec<RunResult> {
    values
        .iter()
        .map(|&v| {
            run(
                "fleet_steady",
                1009,
                "d1",
                &[("wh_days_per_s", v), ("setup_s", 0.2)],
            )
        })
        .collect()
}

fn verdict_of(a: [f64; 3], b: [f64; 3]) -> Verdict {
    let bench = Benchmark::load();
    let c = compare(&bench, &side(a), &side(b));
    assert!(c.refusals.is_empty(), "{:?}", c.refusals);
    let row = c.rows.iter().find(|r| r.metric == "wh_days_per_s").unwrap();
    assert_eq!(row.runs, (3, 3));
    row.verdict
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let bound = Benchmark::load()
        .end_to_end
        .iter()
        .find(|m| m.name == "wh_days_per_s")
        .and_then(|m| m.bound)
        .unwrap();
    let base = [100.0, 100.5, 99.5];
    let scaled = |f: f64| base.map(|v| v * f);

    assert_eq!(verdict_of(base, base), Verdict::Unchanged);
    assert_eq!(
        verdict_of(base, scaled(1.0 - bound / 2.0)),
        Verdict::Unchanged
    );
    // Throughput: lower is worse.
    assert_eq!(
        verdict_of(base, scaled(1.0 - 2.0 * bound)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict_of(base, scaled(1.0 + 2.0 * bound)),
        Verdict::Improved
    );

    // A spread wider than the bound resolves nothing of the bound's size…
    let noisy = [60.0, 100.0, 140.0];
    assert_eq!(verdict_of(noisy, [65.0, 95.0, 150.0]), Verdict::Unresolved);
    // …unless one side beats the other run for run.
    assert_eq!(verdict_of(noisy, [150.0, 200.0, 250.0]), Verdict::Improved);
    assert_eq!(verdict_of(noisy, [10.0, 20.0, 30.0]), Verdict::Regressed);
}

#[test]
fn a_regression_fails_the_comparison_and_renders() {
    let bench = Benchmark::load();
    let c = compare(
        &bench,
        &side([100.0, 101.0, 99.0]),
        &side([50.0, 51.0, 49.0]),
    );
    assert!(c.failed());
    let text = c.render();
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("wh_days_per_s"), "{text}");
    // setup_s is lower-is-better and did not move.
    let setup = c.rows.iter().find(|r| r.metric == "setup_s").unwrap();
    assert_eq!(setup.verdict, Verdict::Unchanged);
    assert!(!compare(&bench, &side([100.0; 3]), &side([100.0; 3])).failed());
}

#[test]
fn a_digest_change_is_reported_but_is_not_a_failure() {
    let bench = Benchmark::load();
    let a = side([100.0; 3]);
    let mut b = side([100.0; 3]);
    for r in &mut b {
        r.digest = "d2".into();
    }
    let c = compare(&bench, &a, &b);
    assert_eq!(c.behaviour_changes.len(), 1, "{:?}", c.behaviour_changes);
    assert!(c.render().contains("behaviour changed"));
    assert!(!c.failed());

    // Runs of one file disagreeing with each other are flagged too.
    b[0].digest = "d3".into();
    let c = compare(&bench, &a, &b);
    assert!(
        c.behaviour_changes[0].contains("same file"),
        "{:?}",
        c.behaviour_changes
    );
}

#[test]
fn mismatched_manifests_are_refused() {
    let bench = Benchmark::load();
    let a = side([100.0; 3]);
    let with = |edit: &dyn Fn(&mut RunResult)| {
        let mut b = side([100.0; 3]);
        b.iter_mut().for_each(edit);
        compare(&bench, &a, &b)
    };
    for (what, c) in [
        ("deps", with(&|r| r.manifest.deps = "stand-in".into())),
        ("smoke", with(&|r| r.manifest.smoke = true)),
        ("seed", with(&|r| r.manifest.seed = 7919)),
        (
            "sizes",
            with(&|r| {
                r.manifest.sizes.insert("tenants".into(), 64);
            }),
        ),
        ("pool width", with(&|r| r.manifest.pool_width = 2)),
        ("workload", with(&|r| r.workload = "gateway_serve".into())),
        ("correctness", with(&|r| r.correct = false)),
    ] {
        assert!(!c.refusals.is_empty(), "{what} mismatch was accepted");
        assert!(c.rows.is_empty(), "{what}");
        assert!(c.failed(), "{what}");
    }
}

#[test]
fn result_files_round_trip_as_jsonl() {
    let runs = side([1.0, 2.0, 3.0]);
    let text: String = runs
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    assert_eq!(parse_results(&text).unwrap(), runs);
    assert_eq!(parse_results("\n\n").unwrap(), Vec::new());
    let err = parse_results(&format!("{text}not json\n")).unwrap_err();
    assert!(err.starts_with("line 4"), "{err}");

    // The contract line carries exactly the four fixed keys.
    let line: serde_json::Value = serde_json::from_str(&runs[0].contract_line()).unwrap();
    let keys: BTreeSet<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
}
