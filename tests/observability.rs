//! Integration tests for the observability layer: a two-week single-warehouse
//! run must yield a complete, explainable, JSONL-round-trippable decision
//! trace, and the metrics registry must capture the decision path end to end.

#![allow(clippy::expect_used)]

use cdw_sim::{
    Account, ActionSource, FaultPlan, Simulator, WarehouseCommand, WarehouseConfig, WarehouseSize,
    DAY_MS, HOUR_MS, MINUTE_MS,
};
use keebo::{
    generate_trace, ConstraintSet, DecisionTrace, KwoSetup, Orchestrator, Rule, RuleEffect,
    TimeWindow,
};
use workload::BiWorkload;

/// Runs the standard scenario: observe week one, onboard, optimize week two
/// at a 30-minute control cadence. Week two is eventful on purpose, so the
/// trace holds every shape a line can take: two overlapping evening rules
/// (one action masked by both), a telemetry outage (stale-telemetry
/// fallback), an `ALTER` outage (mid-repair, then frozen) and an admin's
/// resize behind KWO's back (revert, pause).
fn optimized_two_weeks() -> (Orchestrator, Simulator) {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "BI_WH",
        WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(1, 2),
    );
    let faults = FaultPlan::none()
        .with_telemetry_outage(9 * DAY_MS, 9 * DAY_MS + 5 * HOUR_MS)
        .with_alter_burst(11 * DAY_MS + 9 * HOUR_MS, 11 * DAY_MS + 17 * HOUR_MS, 1.0);
    let mut sim = Simulator::with_faults(account, faults, 42);
    for q in generate_trace(&BiWorkload::default(), 0, 14 * DAY_MS, 42) {
        sim.submit_query(wh, q);
    }
    let mut kwo = Orchestrator::new(42);
    kwo.manage(
        &sim,
        "BI_WH",
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 2,
            refresh_episodes: 0,
            constraints: ConstraintSet::new()
                .with_rule(Rule::new(
                    "evening-reports",
                    TimeWindow::daily(17.0, 23.0),
                    RuleEffect::NoSuspend,
                ))
                .with_rule(Rule::new(
                    "late-suspend-floor",
                    TimeWindow::daily(20.0, 23.0),
                    RuleEffect::MinAutoSuspendMs(30 * MINUTE_MS),
                )),
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, 7 * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 13 * DAY_MS);
    sim.alter_warehouse(
        wh,
        WarehouseCommand::SetSize(WarehouseSize::XLarge),
        ActionSource::External,
    )
    .expect("no fault window covers day 13");
    kwo.run_until(&mut sim, 14 * DAY_MS);
    (kwo, sim)
}

#[test]
fn exported_trace_is_pinned_byte_for_byte() {
    let (kwo, _sim) = optimized_two_weeks();
    let jsonl = kwo.optimizer("BI_WH").expect("managed").trace().to_jsonl();
    // The pin is only worth its scenario: every kind of line is in it.
    for needle in [
        r#""reason":"policy""#,
        r#""reason":"backoff""#,
        r#""reason":"backoff-rollback""#,
        r#""reason":"capacity-decay""#,
        r#""reason":"degraded-fallback""#,
        r#""reason":"degraded:mid-repair""#,
        r#""reason":"frozen""#,
        r#""reason":"paused:external-change""#,
        r#""reason":"paused""#,
        r#""chosen":"Rollback(to Large)""#,
        r#""health":"degraded (stale telemetry)""#,
        r#""health":"degraded (actuation failures)""#,
        r#""health":"frozen""#,
        r#""mask":[]"#,
        r#""reasons":["inapplicable"]"#,
        r#""reasons":["health:stale-telemetry"]"#,
        r#""reasons":["constraint:evening-reports"]"#,
        r#""reasons":["constraint:evening-reports","constraint:late-suspend-floor"]"#,
        r#""reasons":["inapplicable","constraint:late-suspend-floor"]"#,
    ] {
        assert!(jsonl.contains(needle), "no line with {needle}");
    }
    // The format is the one the commit before the trace became plain data
    // wrote on the tick path; the hash was re-pinned once, when live ticks
    // stopped taking a DQN train step (EXPERIMENTS.md, "Re-pin ledger").
    assert_eq!(jsonl.lines().count(), 336);
    // FNV-1a of the text: a hash pins it without committing 300 KB of JSONL.
    let hash = telemetry::hash_query_text(&jsonl);
    assert_eq!(hash, 0xb6d1_91f4_f63b_55dd, "the export moved");
}

#[test]
fn two_week_run_traces_every_decision_and_round_trips() {
    let (kwo, _sim) = optimized_two_weeks();
    let trace = kwo.optimizer("BI_WH").expect("managed").trace();

    // One event per post-onboarding control tick: 7 days at 30-minute
    // cadence is 336 ticks (give slack for the onboarding boundary tick).
    assert!(
        (330..=340).contains(&trace.len()),
        "expected ~336 decision events, got {}",
        trace.len()
    );
    assert_eq!(
        trace.dropped(),
        0,
        "default capacity must hold a two-week run"
    );

    for e in trace.events() {
        // Every event answers: who, when, what, and why.
        assert_eq!(e.warehouse, "BI_WH");
        assert!(
            (168..=336).contains(&e.hour),
            "hour {} outside week two",
            e.hour
        );
        assert!(
            !e.chosen.is_empty(),
            "event at t={} has no chosen action",
            e.t_ms
        );
        assert!(!e.reason.is_empty(), "event at t={} has no reason", e.t_ms);
        assert!(!e.health.is_empty() && !e.size.is_empty());

        // Masked actions always carry at least one masking reason; allowed
        // actions never do. NoOp is unmaskable.
        for m in &e.mask {
            if m.allowed {
                assert!(
                    m.reasons.is_empty(),
                    "{}: allowed but has reasons",
                    m.action
                );
            } else {
                assert!(
                    !m.reasons.is_empty(),
                    "{}: masked without a reason",
                    m.action
                );
            }
        }
        if !e.mask.is_empty() {
            let noop = e
                .mask
                .iter()
                .find(|m| m.action == "NoOp")
                .expect("NoOp in mask");
            assert!(noop.allowed, "NoOp masked at t={}", e.t_ms);
        }
        // A policy decision must have been picked from the allowed set.
        if e.reason == "policy" {
            let entry = e.mask.iter().find(|m| m.action == e.chosen);
            assert!(
                entry.is_some_and(|m| m.allowed),
                "policy chose {} but mask disallows it",
                e.chosen
            );
        }

        // Features are sanitized when the trace is rendered: everything is
        // finite, so the JSONL export cannot contain nulls.
        for v in [
            e.features.arrival_rate_per_hour,
            e.features.mean_latency_ms,
            e.features.p99_latency_ms,
            e.features.mean_queue_ms,
            e.features.mean_concurrency,
            e.features.load_zscore,
            e.features.latency_ratio,
        ] {
            assert!(v.is_finite(), "non-finite feature at t={}", e.t_ms);
        }
    }

    // The JSONL export round-trips losslessly.
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), trace.len());
    let parsed = DecisionTrace::parse_jsonl(&jsonl).expect("all lines parse");
    let original: Vec<_> = trace.events().cloned().collect();
    assert_eq!(parsed, original);
}

#[test]
fn trace_answers_why_at_a_given_hour() {
    let (kwo, _sim) = optimized_two_weeks();
    let trace = kwo.optimizer("BI_WH").expect("managed").trace();

    // "Why did BI_WH do what it did at hour 200?" — two ticks per hour at
    // the 30-minute cadence, each with a chosen action, a reason, and the
    // full mask explaining the alternatives.
    let at_200 = trace.events_at_hour(200);
    assert_eq!(at_200.len(), 2, "expected 2 ticks in hour 200");
    for e in at_200 {
        assert!(!e.reason.is_empty());
        assert!(
            e.mask.is_empty() || e.mask.iter().any(|m| m.allowed),
            "mask at t={} allows nothing",
            e.t_ms
        );
    }
}

#[test]
fn metrics_registry_captures_the_decision_path() {
    let (kwo, sim) = optimized_two_weeks();
    // The savings report replays the optimized week through the cost model,
    // exercising the replay metrics.
    let _ = kwo.savings_report(&sim, "BI_WH", 7 * DAY_MS, 14 * DAY_MS);
    let snap = keebo::obs::global().snapshot();
    assert!(!snap.is_empty());

    let queue = snap
        .histograms
        .iter()
        .find(|h| h.name == "cdw_sim.query.queue_wait_ms")
        .expect("queue wait histogram registered");
    assert!(queue.count > 0, "no queue waits observed");

    let tick = snap
        .histograms
        .iter()
        .find(|h| h.name == "keebo.tick.wall_us")
        .expect("tick wall histogram registered");
    assert!(tick.count > 0, "no tick wall times observed");
    assert!(tick.sum.is_finite() && tick.sum > 0.0);

    assert!(
        snap.counters
            .iter()
            .any(|(name, v)| name == "costmodel.replay.runs" && *v > 0),
        "replay runs not counted"
    );

    // The Prometheus rendering of a live snapshot is well-formed: every
    // histogram ends in a _count line and bucket counts are cumulative.
    let text = keebo::obs::prometheus_text(&snap);
    assert!(text.contains("# TYPE cdw_sim_query_queue_wait_ms histogram"));
    assert!(text.contains("cdw_sim_query_queue_wait_ms_bucket{le=\"+Inf\"}"));
    assert!(text.contains(&format!(
        "cdw_sim_query_queue_wait_ms_count {}",
        queue.count
    )));
}
