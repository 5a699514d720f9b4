//! The experiment harness: one function per paper figure.
//!
//! A figure of the evaluation is a [`Scenario`] (workload, original config,
//! KWO setup, horizon and default seed) and one function that runs it and
//! returns plain data. The `fig4`–`fig7` and `convergence` binaries format
//! that data; the end-to-end tests assert on it, passing a shorter horizon
//! into the same scenario where they run at reduced scale.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use cdw_sim::{
    Account, SimTime, Simulator, WarehouseConfig, WarehouseId, WarehouseSize, DAY_MS, HOUR_MS,
    MINUTE_MS,
};
use costmodel::{ReplayConfig, WarehouseCostModel};
use keebo::{KwoSetup, Orchestrator, SliderPosition, WarehouseOptimizer};
use workload::{
    generate_trace, AdhocWorkload, BiWorkload, EtlWorkload, MixedWorkload, ReportingWorkload,
    WorkloadGenerator,
};

pub mod args;
pub mod estimator;
pub mod report;

/// One experiment: `workload` on a fresh warehouse with the `original`
/// config, observed without Keebo until `observe_ms`, then onboarded and
/// optimized with `setup` until `total_ms`.
pub struct Scenario {
    pub workload: Box<dyn WorkloadGenerator>,
    pub original: WarehouseConfig,
    pub setup: KwoSetup,
    pub observe_ms: SimTime,
    pub total_ms: SimTime,
    pub seed: u64,
}

impl Scenario {
    /// Runs the scenario on a warehouse named `<WORKLOAD>_WH`.
    pub fn run(&self) -> KwoRun {
        let warehouse = self.workload.name().to_uppercase() + "_WH";
        let mut account = Account::new();
        let wh = account.create_warehouse(&warehouse, self.original.clone());
        let mut sim = Simulator::new(account);
        for q in generate_trace(self.workload.as_ref(), 0, self.total_ms, self.seed) {
            sim.submit_query(wh, q);
        }
        let mut kwo = Orchestrator::new(self.seed ^ 0x4B45_4542); // "KEEB"
        kwo.manage(&sim, &warehouse, self.setup.clone());
        kwo.observe_until(&mut sim, self.observe_ms);
        kwo.onboard(&mut sim);
        kwo.run_until(&mut sim, self.total_ms);
        KwoRun {
            sim,
            kwo,
            warehouse,
            wh,
        }
    }
}

/// A finished scenario: the simulator (holding telemetry and billing) plus
/// the orchestrator (holding models and action logs).
pub struct KwoRun {
    pub sim: Simulator,
    pub kwo: Orchestrator,
    pub warehouse: String,
    pub wh: WarehouseId,
}

impl KwoRun {
    /// The run's one optimizer. A figure bin exits with an error instead of
    /// panicking if the warehouse was never managed.
    pub fn optimizer(&self) -> &WarehouseOptimizer {
        match self.kwo.optimizer(&self.warehouse) {
            Some(o) => o,
            None => {
                eprintln!("{} is not managed by the run", self.warehouse);
                std::process::exit(1);
            }
        }
    }
}

/// Billed credits of warehouse `wh` in each window between consecutive
/// `bounds` (ms, on hour boundaries): the ledger's hours in the window, plus,
/// on the last window, which ends at the run's end, the credits of a session
/// still open.
pub fn billed_credits(sim: &Simulator, wh: WarehouseId, bounds: &[SimTime]) -> Vec<f64> {
    let warehouse = sim.account().warehouse(wh);
    let hourly = sim.account().ledger().warehouse(warehouse.name());
    let mut credits: Vec<f64> = bounds
        .windows(2)
        .map(|w| hourly.range_total(w[0] / HOUR_MS, w[1] / HOUR_MS))
        .collect();
    if let Some(last) = credits.last_mut() {
        *last += warehouse.open_session_credits(sim.now());
    }
    credits
}

/// `stat` of the end-to-end latencies (ms) of the queries that completed in
/// each window between consecutive `bounds` (ms).
pub fn latency(sim: &Simulator, bounds: &[SimTime], stat: fn(&[f64]) -> f64) -> Vec<f64> {
    let records = sim.account().query_records();
    bounds
        .windows(2)
        .map(|w| {
            let lats: Vec<f64> = records
                .iter()
                .filter(|r| (w[0]..w[1]).contains(&r.end))
                .map(|r| r.total_latency_ms() as f64)
                .collect();
            stat(&lats)
        })
        .collect()
}

/// The 99th percentile (0 for empty).
pub fn p99(v: &[f64]) -> f64 {
    telemetry::percentile(v, 99.0)
}

/// Mean of a slice (0 for empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The share by which `after` fell below `before`.
pub fn reduction(before: f64, after: f64) -> f64 {
    (before - after) / before.max(1e-9)
}

/// Fig. 4's two warehouses (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig4Variant {
    /// 4a: unpredictable ad-hoc analytics on an oversized warehouse with a
    /// long auto-suspend, the typical pre-optimization posture for a
    /// warehouse serving analysts (paper: −59.7 %).
    A,
    /// 4b: predictable recurring ETL. Pipelines fire every 30 minutes, so
    /// the warehouse is densely used and the headroom KWO can reclaim is
    /// structurally small (paper: −13.2 %).
    B,
}

/// Fig. 4's scenario: 14 days, KWO onboarded after day 7, seed 42.
pub fn fig4_scenario(variant: Fig4Variant) -> Scenario {
    let (workload, original): (Box<dyn WorkloadGenerator>, _) = match variant {
        Fig4Variant::A => (
            Box::new(AdhocWorkload::default()),
            WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(1800),
        ),
        Fig4Variant::B => (
            Box::new(EtlWorkload {
                pipelines: 6,
                period_ms: 30 * MINUTE_MS,
                queries_per_run: 8,
                median_work_ms: 90_000.0,
            }),
            WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
        ),
    };
    Scenario {
        workload,
        original,
        setup: KwoSetup::default(),
        observe_ms: 7 * DAY_MS,
        total_ms: 14 * DAY_MS,
        seed: 42,
    }
}

/// Fig. 4's daily series and the run's action counts.
pub struct Fig4 {
    /// Days observed before onboarding: the series' first entries.
    pub observe_days: usize,
    pub daily_credits: Vec<f64>,
    pub daily_p99_ms: Vec<f64>,
    pub actions_applied: usize,
    pub action_failures: usize,
}

impl Fig4 {
    /// Means of a daily series before and with Keebo.
    pub fn before_after(&self, daily: &[f64]) -> (f64, f64) {
        let (before, after) = daily.split_at(self.observe_days);
        (mean(before), mean(after))
    }

    /// The share of the daily bill Keebo saved.
    pub fn saved_share(&self) -> f64 {
        let (before, after) = self.before_after(&self.daily_credits);
        reduction(before, after)
    }
}

/// Fig. 4 (§7.1): the scenario's daily billed credits and p99 latency.
pub fn fig4(scenario: &Scenario) -> Fig4 {
    let run = scenario.run();
    let bounds: Vec<SimTime> = (0..=scenario.total_ms / DAY_MS)
        .map(|d| d * DAY_MS)
        .collect();
    let actuator = run.optimizer().actuator();
    Fig4 {
        observe_days: (scenario.observe_ms / DAY_MS) as usize,
        daily_credits: billed_credits(&run.sim, run.wh, &bounds),
        daily_p99_ms: latency(&run.sim, &bounds, p99),
        actions_applied: actuator.applied_count(),
        action_failures: actuator.failure_count(),
    }
}

/// Fig. 5's default seed.
pub const FIG5_SEED: u64 = 7;
/// Fig. 5 trains on the first five days and estimates the next two.
const FIG5_TRAIN_MS: SimTime = 5 * DAY_MS;
const FIG5_TOTAL_MS: SimTime = 7 * DAY_MS;

/// One warehouse of Fig. 5: billed and estimated credits of the evaluation
/// window.
pub struct Fig5Row {
    pub warehouse: &'static str,
    pub actual: f64,
    pub estimated: f64,
}

impl Fig5Row {
    pub fn relative_error(&self) -> f64 {
        (self.estimated - self.actual).abs() / self.actual.max(1e-9)
    }
}

/// Fig. 5 (§7.2): for four warehouses, the cost model estimates the
/// evaluation window *without running its queries* (per-template execution
/// estimates feed the replay engine), against the credits billed when they
/// do run.
pub fn fig5(seed: u64) -> Vec<Fig5Row> {
    let etl = fig6_scenario();
    let cases: [(_, Box<dyn WorkloadGenerator>, _); 4] = [
        ("Warehouse1", etl.workload, etl.original),
        (
            "Warehouse2",
            Box::new(BiWorkload::default()),
            WarehouseConfig::new(WarehouseSize::Small)
                .with_auto_suspend_secs(300)
                .with_clusters(1, 3),
        ),
        (
            // The low-spend, rarely-used warehouse: provisioned but mostly
            // idle, so relative error is structurally large.
            "Warehouse3",
            Box::new(AdhocWorkload {
                mean_rate_per_hour: 0.15,
                daily_swing_sigma: 1.0,
                ..AdhocWorkload::default()
            }),
            WarehouseConfig::new(WarehouseSize::XSmall).with_auto_suspend_secs(300),
        ),
        (
            "Warehouse4",
            Box::new(
                MixedWorkload::new("mixed")
                    .with(EtlWorkload {
                        pipelines: 2,
                        ..EtlWorkload::default()
                    })
                    .with(ReportingWorkload::default()),
            ),
            WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(600),
        ),
    ];
    cases
        .into_iter()
        .map(|(warehouse, workload, config)| fig5_row(warehouse, workload.as_ref(), &config, seed))
        .collect()
}

fn fig5_row(
    warehouse: &'static str,
    workload: &dyn WorkloadGenerator,
    config: &WarehouseConfig,
    seed: u64,
) -> Fig5Row {
    let trace = generate_trace(workload, 0, FIG5_TOTAL_MS, seed);

    // Ground truth: actually run everything.
    let mut account = Account::new();
    let wh = account.create_warehouse("WH", config.clone());
    let mut sim = Simulator::new(account);
    for q in &trace {
        sim.submit_query(wh, q.clone());
    }
    sim.run_until(FIG5_TOTAL_MS);
    let actual = billed_credits(&sim, wh, &[FIG5_TRAIN_MS, FIG5_TOTAL_MS])[0];

    // Estimate: train on the training days, predict the rest without
    // executing them.
    let history: Vec<_> = sim
        .account()
        .query_records()
        .iter()
        .filter(|r| r.arrival < FIG5_TRAIN_MS)
        .cloned()
        .collect();
    let model = WarehouseCostModel::train(
        &history,
        0,
        FIG5_TRAIN_MS,
        config.max_concurrency,
        config.max_clusters,
    );
    let exec_est = estimator::TemplateExecEstimator::train(&history, &model.latency, config.size);
    let eval_specs: Vec<_> = trace
        .into_iter()
        .filter(|q| q.arrival >= FIG5_TRAIN_MS)
        .collect();
    let predicted = exec_est.predict_records(&eval_specs, config, &model.latency, "WH");
    let outcome = model.replay(
        &predicted,
        &ReplayConfig {
            original: config.clone(),
            window_start: FIG5_TRAIN_MS,
            window_end: FIG5_TOTAL_MS,
        },
    );
    Fig5Row {
        warehouse,
        actual,
        estimated: outcome.estimated_credits,
    }
}

/// Fig. 6's scenario: a default ETL warehouse, two days observed and two
/// optimized, seed 11.
pub fn fig6_scenario() -> Scenario {
    Scenario {
        workload: Box::new(EtlWorkload::default()),
        original: WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600),
        setup: KwoSetup::default(),
        observe_ms: 2 * DAY_MS,
        total_ms: 4 * DAY_MS,
        seed: 11,
    }
}

/// Fig. 6's hourly series over the optimized window.
pub struct Fig6 {
    pub first_hour: u64,
    /// Billed credits (a session still open at the end lands on the last
    /// hour).
    pub actual: Vec<f64>,
    /// KWO's own credits: telemetry fetches and actuator commands.
    pub overhead: Vec<f64>,
    /// The savings report's without-Keebo replay.
    pub without: Vec<f64>,
}

/// Fig. 6 (§7.3): the scenario's optimized hours.
pub fn fig6(scenario: &Scenario) -> Fig6 {
    let run = scenario.run();
    let report = run
        .optimizer()
        .savings_report(&run.sim, scenario.observe_ms, scenario.total_ms);
    let hours = scenario.observe_ms / HOUR_MS..scenario.total_ms / HOUR_MS;
    let bounds: Vec<SimTime> = (hours.start..=hours.end).map(|h| h * HOUR_MS).collect();
    let overhead = run.sim.account().ledger().overhead();
    Fig6 {
        first_hour: hours.start,
        actual: billed_credits(&run.sim, run.wh, &bounds),
        overhead: hours.clone().map(|h| overhead.hour(h)).collect(),
        without: hours.map(|h| report.replay.hourly.hour(h)).collect(),
    }
}

/// Fig. 7's scenario: a BI workload on an oversized two-cluster warehouse,
/// three days observed and five optimized, seed 21.
pub fn fig7_scenario() -> Scenario {
    Scenario {
        workload: Box::new(BiWorkload::default()),
        original: WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(1800)
            .with_clusters(1, 2),
        setup: KwoSetup::default(),
        observe_ms: 3 * DAY_MS,
        total_ms: 8 * DAY_MS,
        seed: 21,
    }
}

/// One slider position of Fig. 7, over the optimized window.
pub struct Fig7Point {
    pub slider: SliderPosition,
    pub credits: f64,
    pub mean_latency_ms: f64,
}

/// Fig. 7 (§7.4): the scenario under each of the five slider positions.
pub fn fig7(mut scenario: Scenario) -> Vec<Fig7Point> {
    SliderPosition::ALL
        .into_iter()
        .map(|slider| {
            scenario.setup.slider = slider;
            let run = scenario.run();
            let optimized = [scenario.observe_ms, scenario.total_ms];
            Fig7Point {
                slider,
                credits: billed_credits(&run.sim, run.wh, &optimized)[0],
                mean_latency_ms: latency(&run.sim, &[scenario.observe_ms, SimTime::MAX], mean)[0],
            }
        })
        .collect()
}

/// The convergence scenario: the Fig. 4a warehouse, onboarded after six
/// hours with modest initial training (so there is headroom to converge
/// into), then optimized for seven days, seed 5.
pub fn convergence_scenario() -> Scenario {
    Scenario {
        setup: KwoSetup {
            onboarding_episodes: 2,
            refresh_episodes: 2,
            train_interval_ms: 12 * HOUR_MS,
            ..KwoSetup::default()
        },
        observe_ms: 6 * HOUR_MS,
        total_ms: 6 * HOUR_MS + 7 * DAY_MS,
        seed: 5,
        ..fig4_scenario(Fig4Variant::A)
    }
}

/// Savings rates (the share of the without-Keebo estimate saved) per bucket
/// after onboarding.
pub struct Convergence {
    pub bucket_hours: u64,
    pub rates: Vec<f64>,
    /// The rate over all buckets up to and including each one.
    pub cumulative: Vec<f64>,
}

impl Convergence {
    /// The "eventual" savings rate: the mean over the run's final quarter.
    pub fn eventual(&self) -> f64 {
        let tail = &self.rates[self.rates.len() - (self.rates.len() / 4).max(1)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Hours after onboarding until a bucket first saves `share` of the
    /// eventual rate.
    pub fn hours_to(&self, share: f64) -> Option<u64> {
        let target = share * self.eventual();
        let bucket = self.rates.iter().position(|&r| r >= target)?;
        Some((bucket + 1) as u64 * self.bucket_hours)
    }
}

/// The §1/§9 onboarding curve, in 4-hour buckets.
pub fn convergence(scenario: &Scenario) -> Convergence {
    let bucket_hours = 4;
    let run = scenario.run();
    let (mut rates, mut cumulative) = (Vec::new(), Vec::new());
    let (mut saved, mut without) = (0.0, 0.0);
    let bucket_ms = bucket_hours * HOUR_MS;
    for b in 0..(scenario.total_ms - scenario.observe_ms) / bucket_ms {
        let start = scenario.observe_ms + b * bucket_ms;
        let report = run
            .optimizer()
            .savings_report(&run.sim, start, start + bucket_ms);
        saved += report.estimated_savings.max(0.0);
        without += report.estimated_without_keebo;
        rates.push(report.savings_fraction.max(0.0));
        cumulative.push(saved / without.max(1e-9));
    }
    Convergence {
        bucket_hours,
        rates,
        cumulative,
    }
}
