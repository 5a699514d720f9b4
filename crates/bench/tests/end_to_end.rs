//! End-to-end tests shaped like the paper's experiments. Each runs a
//! figure's own scenario from `bench` at reduced scale, so it runs in CI
//! time, and asserts the *direction* of the corresponding evaluation claim;
//! the figure binaries format the same functions at full scale.

use bench::{billed_credits, fig4, fig4_scenario, fig5, fig6_scenario, latency, p99};
use bench::{Fig4Variant, Scenario};
use cdw_sim::{DAY_MS, MINUTE_MS};
use keebo::{KwoSetup, SliderPosition, ValueBasedPricing};

const OBSERVE_DAYS: u64 = 2;
const TOTAL_DAYS: u64 = 5;
const OBSERVE_MS: u64 = OBSERVE_DAYS * DAY_MS;
const TOTAL_MS: u64 = TOTAL_DAYS * DAY_MS;

/// `scenario` at the tests' scale: two observed days of five, a fast setup
/// at `slider`, and `seed`.
fn small(scenario: Scenario, slider: SliderPosition, seed: u64) -> Scenario {
    Scenario {
        setup: KwoSetup {
            slider,
            realtime_interval_ms: 20 * MINUTE_MS,
            onboarding_episodes: 3,
            refresh_episodes: 0,
            ..KwoSetup::default()
        },
        observe_ms: OBSERVE_MS,
        total_ms: TOTAL_MS,
        seed,
        ..scenario
    }
}

/// Fig. 4a's idle-heavy ad-hoc warehouse at the tests' scale.
fn adhoc(slider: SliderPosition, seed: u64) -> Scenario {
    small(fig4_scenario(Fig4Variant::A), slider, seed)
}

/// Fig. 4 direction: KWO cuts the bill of an idle-heavy warehouse.
#[test]
fn kwo_saves_on_an_idle_heavy_warehouse() {
    let saved = fig4(&adhoc(SliderPosition::Balanced, 42)).saved_share();
    assert!(saved > 0.3, "expected >30% savings, got {saved:.3}");
}

/// Fig. 4 shape: the unpredictable warehouse saves at least twice the share
/// the predictable one does (paper: 59.7 % against 13.2 %), each on its
/// `fig4` scenario.
#[test]
fn unpredictable_warehouse_saves_at_least_twice_the_predictable_one() {
    let saved = |variant| {
        let scenario = small(fig4_scenario(variant), SliderPosition::Balanced, 42);
        fig4(&scenario).saved_share()
    };
    let (adhoc, etl) = (saved(Fig4Variant::A), saved(Fig4Variant::B));
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
    let run = adhoc(SliderPosition::Balanced, 42).run();
    let p = latency(&run.sim, &[0, OBSERVE_MS, TOTAL_MS], p99);
    let (before, after) = (p[0], p[1]);
    assert!(
        after < 2.0 * before,
        "p99 should stay near baseline: {before:.0}ms -> {after:.0}ms"
    );
}

/// Fig. 7 direction: the cost-most slider spends no more than the
/// performance-most slider on the same workload.
#[test]
fn slider_orders_cost() {
    let credits = |slider| {
        let run = adhoc(slider, 7).run();
        billed_credits(&run.sim, run.wh, &[OBSERVE_MS, TOTAL_MS])[0]
    };
    let cheap = credits(SliderPosition::LowestCost);
    let fast = credits(SliderPosition::BestPerformance);
    assert!(
        cheap <= fast,
        "LowestCost ({cheap:.1}) must not outspend BestPerformance ({fast:.1})"
    );
}

/// Fig. 5 accuracy: the cost model estimates the busy ETL (Warehouse1) and
/// mixed (Warehouse4) warehouses' evaluation window within 1 % of the
/// credits they are billed, at every seed.
#[test]
fn cost_model_estimates_busy_warehouses_within_one_percent() {
    for seed in 1..=10 {
        for row in fig5(seed) {
            if matches!(row.warehouse, "Warehouse1" | "Warehouse4") {
                let err = row.relative_error();
                assert!(err < 0.01, "seed {seed}: {} off by {err:.4}", row.warehouse);
            }
        }
    }
}

/// §5/§7.2 direction: the savings report's without-Keebo estimate must be
/// in the right ballpark of the actually observed pre-Keebo spend rate.
#[test]
fn savings_report_is_calibrated_against_reality() {
    let run = adhoc(SliderPosition::Balanced, 11).run();
    let report = run
        .optimizer()
        .savings_report(&run.sim, OBSERVE_MS, TOTAL_MS);
    // The replay must estimate a plausible without-Keebo cost: positive and
    // within a factor ~2.5 of the pre-Keebo daily spend extrapolated (the
    // workload's daily swing makes exact matching impossible by design).
    let before = billed_credits(&run.sim, run.wh, &[0, OBSERVE_MS, TOTAL_MS])[0];
    let extrapolated = before / OBSERVE_DAYS as f64 * (TOTAL_DAYS - OBSERVE_DAYS) as f64;
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
    let run = small(fig6_scenario(), SliderPosition::Balanced, 3).run();
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
    let mut run = adhoc(SliderPosition::Balanced, 5).run();
    let actions_before = run.optimizer().actuator().log().len();
    run.sim
        .alter_warehouse(
            run.wh,
            cdw_sim::WarehouseCommand::SetClusterRange { min: 1, max: 8 },
            cdw_sim::ActionSource::External,
        )
        .unwrap();
    let until = run.sim.now() + 4 * 60 * MINUTE_MS;
    run.kwo.run_until(&mut run.sim, until);
    let o = run.optimizer();
    assert!(o.is_paused(run.sim.now()));
    // At most the single revert action fired after the external change.
    assert!(o.actuator().log().len() <= actions_before + 1);
}

/// Determinism: the full pipeline is reproducible from a seed.
#[test]
fn end_to_end_runs_are_deterministic() {
    let f = || {
        let run = adhoc(SliderPosition::Balanced, 99).run();
        (
            billed_credits(&run.sim, run.wh, &[OBSERVE_MS, TOTAL_MS])[0],
            run.sim.account().query_records().len(),
            run.optimizer().actuator().log().len(),
        )
    };
    assert_eq!(f(), f());
}
