//! Observability: metrics snapshot + decision trace for one warehouse.
//!
//! Runs the standard two-week quickstart scenario (observe week one,
//! optimize week two), then exports what the observability layer captured:
//!
//! * `OBS_metrics.prom` — Prometheus-style text snapshot of every counter,
//!   gauge, and histogram the decision path recorded (queue waits, replay
//!   latency error, tick wall time, actuation outcomes, ...);
//! * `OBS_trace.jsonl` — the per-tick decision trace: state features, the
//!   full action mask with masking reasons, the chosen action, and reward.
//!
//! The trace answers "why did BI_WH change configuration at hour H?" — the
//! example picks the first non-NoOp tick and prints exactly that story.
//!
//! Run with: `cargo run --release --example observability`

#![allow(clippy::expect_used)]

use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS, MINUTE_MS};
use keebo::{generate_trace, DecisionTrace, KwoSetup, Orchestrator};
use workload::BiWorkload;

fn main() {
    // 1. One oversized BI warehouse with two weeks of dashboard traffic.
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "BI_WH",
        WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(1, 2),
    );
    let mut sim = Simulator::new(account);
    for q in generate_trace(&BiWorkload::default(), 0, 14 * DAY_MS, 42) {
        sim.submit_query(wh, q);
    }

    // 2. Attach KWO with a 30-minute control cadence (672 ticks over two
    //    weeks — comfortably inside the default trace capacity).
    let mut kwo = Orchestrator::new(42);
    kwo.manage(
        &sim,
        "BI_WH",
        KwoSetup {
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 2,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, 7 * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 14 * DAY_MS);
    let report = kwo.savings_report(&sim, "BI_WH", 7 * DAY_MS, 14 * DAY_MS);
    println!(
        "estimated savings: {:.1} credits ({:.0}%)",
        report.estimated_savings,
        report.savings_fraction * 100.0
    );

    // 3. Export the metrics registry as Prometheus text.
    let snapshot = keebo::obs::global().snapshot();
    assert!(
        !snapshot.is_empty(),
        "decision path recorded no metrics — registry wiring is broken"
    );
    let prom = keebo::obs::prometheus_text(&snapshot);
    assert!(
        prom.contains("cdw_sim_query_queue_wait_ms")
            && prom.contains("keebo_tick_wall_us")
            && prom.contains("costmodel_replay_runs"),
        "expected core decision-path series in the export"
    );
    std::fs::write("OBS_metrics.prom", &prom).expect("write OBS_metrics.prom");
    println!(
        "wrote OBS_metrics.prom ({} series, {} lines)",
        snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len(),
        prom.lines().count()
    );

    // 4. Export the decision trace as JSONL and prove it round-trips.
    let trace = kwo.optimizer("BI_WH").expect("managed warehouse").trace();
    assert!(
        !trace.is_empty(),
        "optimized week produced no decision events"
    );
    let jsonl = trace.to_jsonl();
    let parsed = DecisionTrace::parse_jsonl(&jsonl).expect("every trace line parses back");
    assert_eq!(parsed.len(), trace.len(), "round-trip dropped events");
    std::fs::write("OBS_trace.jsonl", &jsonl).expect("write OBS_trace.jsonl");
    println!("wrote OBS_trace.jsonl ({} events)", trace.len());

    // 5. Answer the operator question: why did BI_WH act at hour H?
    let decision = parsed
        .iter()
        .find(|e| e.chosen != "NoOp")
        .unwrap_or_else(|| parsed.first().expect("trace is non-empty"));
    println!();
    println!(
        "hour {:>3}: {} chose {} ({}), health {}, size {}",
        decision.hour,
        decision.warehouse,
        decision.chosen,
        decision.reason,
        decision.health,
        decision.size
    );
    println!(
        "  observed: {:.0} queries/h, mean latency {:.0} ms, p99 {:.0} ms, \
         queue {:.0} ms, latency ratio {:.2}",
        decision.features.arrival_rate_per_hour,
        decision.features.mean_latency_ms,
        decision.features.p99_latency_ms,
        decision.features.mean_queue_ms,
        decision.features.latency_ratio
    );
    for entry in decision.mask.iter().filter(|m| !m.allowed) {
        println!("  masked: {} ({})", entry.action, entry.reasons.join(", "));
    }
    if let Some(reward) = decision.reward {
        println!("  reward credited for previous action: {reward:.3}");
    }
}
