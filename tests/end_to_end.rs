//! End-to-end tests shaped like the paper's experiments, at reduced scale so
//! they run in CI time. Each asserts the *direction* of the corresponding
//! evaluation claim; the bench binaries regenerate the full figures.

use cdw_sim::{Account, Simulator, WarehouseConfig, WarehouseSize, DAY_MS, MINUTE_MS};
use keebo::{generate_trace, KwoSetup, Orchestrator, SliderPosition, ValueBasedPricing};
use workload::{AdhocWorkload, EtlWorkload, WorkloadGenerator};

const OBSERVE_DAYS: u64 = 2;
const TOTAL_DAYS: u64 = 5;

struct Run {
    sim: Simulator,
    kwo: Orchestrator,
    wh: cdw_sim::WarehouseId,
}

fn run_kwo(
    gen: &dyn WorkloadGenerator,
    config: WarehouseConfig,
    slider: SliderPosition,
    seed: u64,
) -> Run {
    let mut account = Account::new();
    let wh = account.create_warehouse("WH", config);
    let mut sim = Simulator::new(account);
    for q in generate_trace(gen, 0, TOTAL_DAYS * DAY_MS, seed) {
        sim.submit_query(wh, q);
    }
    let mut kwo = Orchestrator::new(seed);
    kwo.manage(
        &sim,
        "WH",
        KwoSetup {
            slider,
            realtime_interval_ms: 20 * MINUTE_MS,
            onboarding_episodes: 3,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
    );
    kwo.observe_until(&mut sim, OBSERVE_DAYS * DAY_MS);
    kwo.onboard(&mut sim);
    kwo.run_until(&mut sim, TOTAL_DAYS * DAY_MS);
    Run { sim, kwo, wh }
}

fn optimized_credits(run: &Run) -> f64 {
    run.sim
        .account()
        .ledger()
        .warehouse("WH")
        .range_total(OBSERVE_DAYS * 24, TOTAL_DAYS * 24)
        + run
            .sim
            .account()
            .warehouse(run.wh)
            .open_session_credits(run.sim.now())
}

/// Share of the bill saved: optimized credits against the pre-Keebo daily
/// rate extrapolated over the optimized window.
fn saved_share(run: &Run) -> f64 {
    let before_daily = run
        .sim
        .account()
        .ledger()
        .warehouse("WH")
        .range_total(0, OBSERVE_DAYS * 24)
        / OBSERVE_DAYS as f64;
    let without = before_daily * (TOTAL_DAYS - OBSERVE_DAYS) as f64;
    1.0 - optimized_credits(run) / without
}

fn p99_in_window(run: &Run, from: u64, to: u64) -> f64 {
    let lats: Vec<f64> = run
        .sim
        .account()
        .query_records()
        .iter()
        .filter(|r| (from * DAY_MS..to * DAY_MS).contains(&r.end))
        .map(|r| r.total_latency_ms() as f64)
        .collect();
    telemetry::percentile(&lats, 99.0)
}

/// Fig. 4 direction: KWO cuts the bill of an idle-heavy warehouse.
#[test]
fn kwo_saves_on_an_idle_heavy_warehouse() {
    let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let run = run_kwo(
        &AdhocWorkload::default(),
        original,
        SliderPosition::Balanced,
        42,
    );
    let saved = saved_share(&run);
    assert!(saved > 0.3, "expected >30% savings, got {saved:.3}");
}

/// Fig. 4 shape: the unpredictable warehouse saves at least twice the share
/// the predictable one does (paper: 59.7 % against 13.2 %), each on its
/// `fig4` configuration.
#[test]
fn unpredictable_warehouse_saves_at_least_twice_the_predictable_one() {
    let adhoc = saved_share(&run_kwo(
        &AdhocWorkload::default(),
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800),
        SliderPosition::Balanced,
        42,
    ));
    let etl = EtlWorkload {
        pipelines: 6,
        period_ms: 30 * MINUTE_MS,
        queries_per_run: 8,
        median_work_ms: 90_000.0,
    };
    let etl = saved_share(&run_kwo(
        &etl,
        WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
        SliderPosition::Balanced,
        42,
    ));
    assert!(etl > 0.0, "the predictable warehouse saves: {etl:.3}");
    assert!(
        adhoc >= 2.0 * etl,
        "unpredictable {adhoc:.3} against predictable {etl:.3}"
    );
}

/// Fig. 4 performance side: savings must not come with big p99 regressions
/// at the Balanced slider.
#[test]
fn balanced_slider_protects_p99() {
    let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let run = run_kwo(
        &AdhocWorkload::default(),
        original,
        SliderPosition::Balanced,
        42,
    );
    let before = p99_in_window(&run, 0, OBSERVE_DAYS);
    let after = p99_in_window(&run, OBSERVE_DAYS, TOTAL_DAYS);
    assert!(
        after < 2.0 * before,
        "p99 should stay near baseline: {before:.0}ms -> {after:.0}ms"
    );
}

/// Fig. 7 direction: the cost-most slider spends no more than the
/// performance-most slider on the same workload.
#[test]
fn slider_orders_cost() {
    let gen = AdhocWorkload::default();
    let original = || WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let cheap = optimized_credits(&run_kwo(&gen, original(), SliderPosition::LowestCost, 7));
    let fast = optimized_credits(&run_kwo(
        &gen,
        original(),
        SliderPosition::BestPerformance,
        7,
    ));
    assert!(
        cheap <= fast,
        "LowestCost ({cheap:.1}) must not outspend BestPerformance ({fast:.1})"
    );
}

/// §5/§7.2 direction: the savings report's without-Keebo estimate must be
/// in the right ballpark of the actually observed pre-Keebo spend rate.
#[test]
fn savings_report_is_calibrated_against_reality() {
    let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let run = run_kwo(
        &AdhocWorkload::default(),
        original,
        SliderPosition::Balanced,
        11,
    );
    let report = run
        .kwo
        .savings_report(&run.sim, "WH", OBSERVE_DAYS * DAY_MS, TOTAL_DAYS * DAY_MS);
    // The replay must estimate a plausible without-Keebo cost: positive and
    // within a factor ~2.5 of the pre-Keebo daily spend extrapolated (the
    // workload's daily swing makes exact matching impossible by design).
    let before_daily = run
        .sim
        .account()
        .ledger()
        .warehouse("WH")
        .range_total(0, OBSERVE_DAYS * 24)
        / OBSERVE_DAYS as f64;
    let extrapolated = before_daily * (TOTAL_DAYS - OBSERVE_DAYS) as f64;
    assert!(report.estimated_without_keebo > 0.0);
    let ratio = report.estimated_without_keebo / extrapolated;
    assert!(
        (0.4..2.5).contains(&ratio),
        "estimate {:.1} vs extrapolated {extrapolated:.1} (ratio {ratio:.2})",
        report.estimated_without_keebo
    );
    // Value-based pricing never charges more than the savings.
    let invoice = ValueBasedPricing::default().invoice(&report);
    assert!(invoice.charge_credits <= report.estimated_savings.max(0.0));
}

/// §7.3 direction: KWO's own overhead is small relative to usage.
#[test]
fn overhead_is_negligible() {
    let original = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
    let run = run_kwo(
        &EtlWorkload::default(),
        original,
        SliderPosition::Balanced,
        3,
    );
    let usage = run.sim.account().ledger().total_credits();
    let overhead = run.sim.account().ledger().overhead().total();
    assert!(overhead > 0.0, "telemetry fetches must cost something");
    assert!(
        overhead < 0.05 * usage,
        "overhead {overhead:.2} should be <5% of usage {usage:.2}"
    );
}

/// §4.4: an external change freezes optimization; dashboards keep working.
#[test]
fn external_change_is_detected_and_respected() {
    let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
    let mut run = run_kwo(
        &AdhocWorkload::default(),
        original,
        SliderPosition::Balanced,
        5,
    );
    let actions_before = run.kwo.optimizer("WH").unwrap().actuator().log().len();
    run.sim
        .alter_warehouse(
            run.wh,
            cdw_sim::WarehouseCommand::SetClusterRange { min: 1, max: 8 },
            cdw_sim::ActionSource::External,
        )
        .unwrap();
    let until = run.sim.now() + 4 * 60 * MINUTE_MS;
    run.kwo.run_until(&mut run.sim, until);
    let o = run.kwo.optimizer("WH").unwrap();
    assert!(o.is_paused(run.sim.now()));
    // At most the single revert action fired after the external change.
    assert!(o.actuator().log().len() <= actions_before + 1);
}

/// Determinism: the full pipeline is reproducible from a seed.
#[test]
fn end_to_end_runs_are_deterministic() {
    let f = || {
        let original = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800);
        let run = run_kwo(
            &AdhocWorkload::default(),
            original,
            SliderPosition::Balanced,
            99,
        );
        (
            optimized_credits(&run),
            run.sim.account().query_records().len(),
            run.kwo.optimizer("WH").unwrap().actuator().log().len(),
        )
    };
    assert_eq!(f(), f());
}
