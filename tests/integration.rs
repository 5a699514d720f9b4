//! Cross-crate integration tests: each test exercises a seam between two or
//! more crates (workload → simulator → telemetry → cost model → agent →
//! orchestration) rather than a single module.

use cdw_sim::{
    Account, ActionSource, QuerySpec, Simulator, WarehouseCommand, WarehouseConfig, WarehouseSize,
    DAY_MS, HOUR_MS, MINUTE_MS,
};
use costmodel::{ReplayConfig, WarehouseCostModel};
use keebo::{
    generate_trace, ConstraintSet, KwoSetup, Orchestrator, Rule, RuleEffect, SliderPosition,
    TimeWindow,
};
use telemetry::{TelemetryFetcher, TelemetryStore, WindowFeatures};
use workload::{AdhocWorkload, BiWorkload, EtlWorkload, MixedWorkload, WorkloadGenerator};

/// Runs a generated trace through the simulator and returns (sim, wh).
fn simulate(
    gen: &dyn WorkloadGenerator,
    config: WarehouseConfig,
    days: u64,
    seed: u64,
) -> (Simulator, cdw_sim::WarehouseId) {
    let mut account = Account::new();
    let wh = account.create_warehouse("WH", config);
    let mut sim = Simulator::new(account);
    for q in generate_trace(gen, 0, days * DAY_MS, seed) {
        sim.submit_query(wh, q);
    }
    sim.run_until(days * DAY_MS);
    (sim, wh)
}

#[test]
fn workload_to_simulator_executes_every_query() {
    let gen = BiWorkload::default();
    let expected = generate_trace(&gen, 0, 2 * DAY_MS, 5).len();
    let (mut sim, _) = simulate(
        &gen,
        WarehouseConfig::new(WarehouseSize::Medium).with_clusters(1, 4),
        2,
        5,
    );
    // Run past the horizon so stragglers complete.
    sim.run_to_completion();
    assert_eq!(sim.account().query_records().len(), expected);
}

#[test]
fn telemetry_pipeline_reflects_simulator_truth() {
    let (mut sim, _) = simulate(
        &EtlWorkload::default(),
        WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(300),
        1,
        3,
    );
    let mut store = TelemetryStore::new();
    let mut fetcher = TelemetryFetcher::new();
    let now = sim.now();
    let n = fetcher
        .fetch(
            sim.account_mut(),
            &mut store,
            now,
            cdw_sim::TelemetryFault::None,
        )
        .unwrap();
    assert_eq!(n, sim.account().query_records().len());
    // Window features over the whole day count every arrival.
    let features = WindowFeatures::series(store.queries("WH"), 0, DAY_MS, HOUR_MS);
    let arrivals: usize = features.iter().map(|w| w.arrivals).sum();
    assert_eq!(arrivals, store.total_queries());
}

#[test]
fn cost_model_trained_on_telemetry_reprices_the_same_period_accurately() {
    // Replaying a period under the *same* configuration it actually ran
    // with must approximately reproduce the actual bill (self-consistency).
    let config = WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(300);
    let (sim, wh) = simulate(&EtlWorkload::default(), config.clone(), 3, 7);
    let records = sim.account().query_records().to_vec();
    let model = WarehouseCostModel::train(&records, 0, 3 * DAY_MS, 8, 1);
    let outcome = model.replay(
        &records,
        &ReplayConfig {
            original: config,
            window_start: 0,
            window_end: 3 * DAY_MS,
        },
    );
    let actual = sim.account().ledger().warehouse("WH").total()
        + sim.account().warehouse(wh).open_session_credits(sim.now());
    let rel_err = (outcome.estimated_credits - actual).abs() / actual;
    assert!(
        rel_err < 0.25,
        "self-replay should be accurate: estimated {:.2} vs actual {actual:.2} ({:.0}% off)",
        outcome.estimated_credits,
        rel_err * 100.0
    );
}

#[test]
fn mixed_workloads_preserve_component_volumes() {
    let mix = MixedWorkload::new("hybrid")
        .with(EtlWorkload::default())
        .with(BiWorkload::default())
        .with(AdhocWorkload::default());
    let total = generate_trace(&mix, 0, DAY_MS, 11).len();
    let parts: usize = [
        generate_trace(&EtlWorkload::default(), 0, DAY_MS, 11).len(),
        generate_trace(&BiWorkload::default(), 0, DAY_MS, 11).len(),
        generate_trace(&AdhocWorkload::default(), 0, DAY_MS, 11).len(),
    ]
    .iter()
    .sum();
    // Component RNGs differ inside the mix, so stochastic volumes differ,
    // but the magnitude must match.
    assert!(
        (total as f64 - parts as f64).abs() / parts as f64 <= 0.5,
        "mix volume {total} vs parts {parts}"
    );
}

#[test]
fn actuator_commands_change_the_simulated_warehouse() {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "WH",
        WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
    );
    let mut sim = Simulator::new(account);
    sim.submit_query(
        wh,
        QuerySpec::builder(1)
            .work_ms_xs(5_000.0)
            .arrival_ms(0)
            .build(),
    );
    sim.run_until(MINUTE_MS);

    sim.alter_warehouse(
        wh,
        WarehouseCommand::SetSize(WarehouseSize::Small),
        ActionSource::Keebo,
    )
    .unwrap();
    sim.alter_warehouse(
        wh,
        WarehouseCommand::SetAutoSuspend { ms: 60_000 },
        ActionSource::Keebo,
    )
    .unwrap();
    sim.alter_warehouse(
        wh,
        WarehouseCommand::SetClusterRange { min: 1, max: 3 },
        ActionSource::Keebo,
    )
    .unwrap();
    let desc = sim.account().describe(wh);
    assert_eq!(desc.config.size, WarehouseSize::Small);
    assert_eq!(desc.config.auto_suspend_ms, 60_000);
    assert_eq!(desc.config.max_clusters, 3);
    // Keebo-sourced events are distinguishable from external ones.
    assert!(sim
        .account()
        .event_records()
        .iter()
        .any(|e| e.source == ActionSource::Keebo));
}

#[test]
fn orchestrator_honors_constraints_end_to_end() {
    let mut account = Account::new();
    let wh = account.create_warehouse(
        "WH",
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800),
    );
    let mut sim = Simulator::new(account);
    for q in generate_trace(&AdhocWorkload::default(), 0, 4 * DAY_MS, 13) {
        sim.submit_query(wh, q);
    }
    // Hard floor: never below Large, ever.
    let constraints = ConstraintSet::new().with_rule(Rule::new(
        "always-large",
        TimeWindow::always(),
        RuleEffect::MinSize(WarehouseSize::Large),
    ));
    let mut kwo = Orchestrator::new(17);
    kwo.manage(
        &sim,
        "WH",
        KwoSetup {
            slider: SliderPosition::LowestCost, // maximum downsizing pressure
            constraints,
            realtime_interval_ms: 30 * MINUTE_MS,
            onboarding_episodes: 2,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 4 * DAY_MS);
    // No query ever executed below Large, and the final size respects the
    // constraint.
    for r in sim.account().query_records() {
        assert!(r.size >= WarehouseSize::Large, "query ran at {:?}", r.size);
    }
    assert!(sim.account().describe(wh).config.size >= WarehouseSize::Large);
}

#[test]
fn orchestrator_manages_multiple_warehouses_independently() {
    use rand::SeedableRng;
    let mut account = Account::new();
    let a = account.create_warehouse(
        "ETL_WH",
        WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
    );
    let b = account.create_warehouse(
        "ADHOC_WH",
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800),
    );
    let mut sim = Simulator::new(account);
    for q in generate_trace(&EtlWorkload::default(), 0, 3 * DAY_MS, 1) {
        sim.submit_query(a, q);
    }
    // Disjoint id space for the second warehouse's trace.
    let mut ids = workload::IdAllocator::starting_at(1_000_000);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for q in AdhocWorkload::default().generate(0, 3 * DAY_MS, &mut ids, &mut rng) {
        sim.submit_query(b, q);
    }
    let fast = KwoSetup {
        realtime_interval_ms: 30 * MINUTE_MS,
        onboarding_episodes: 1,
        ..KwoSetup::default()
    };
    let mut kwo = Orchestrator::new(23);
    kwo.manage(&sim, "ETL_WH", fast.clone());
    kwo.manage(&sim, "ADHOC_WH", fast);
    kwo.observe_until(&mut sim, DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, 3 * DAY_MS);
    // Each optimizer only saw its own warehouse.
    let etl = kwo.optimizer("ETL_WH").unwrap();
    let adhoc = kwo.optimizer("ADHOC_WH").unwrap();
    assert!(!etl.store().queries("ETL_WH").is_empty());
    assert!(!adhoc.store().queries("ADHOC_WH").is_empty());
}

#[test]
fn hashing_boundary_keeps_query_text_out_of_telemetry() {
    // The C6 path: raw SQL gets hashed before entering the stores; two
    // queries differing only in literals share a template hash.
    let a = "SELECT sum(amount) FROM orders WHERE day = '2023-06-18'";
    let b = "SELECT sum(amount) FROM orders WHERE day = '2023-06-19'";
    assert_ne!(telemetry::hash_query_text(a), telemetry::hash_query_text(b));
    assert_eq!(
        telemetry::hash_query_template(a),
        telemetry::hash_query_template(b)
    );
    // The spec carries only the u64 hashes.
    let rec_text_hash: u64 = telemetry::hash_query_text(a);
    let _ = QuerySpec::builder(1).text_hash(rec_text_hash).build();
}
