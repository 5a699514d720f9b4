//! Property-based tests over the core invariants: billing arithmetic,
//! simulator conservation laws, cost-model monotonicity, cache bounds, and
//! constraint-mask safety.

#![allow(clippy::unwrap_used, clippy::disallowed_types)]

use cdw_sim::{
    billing::{session_credits, HourlyCredits},
    Account, CacheState, QuerySpec, Simulator, WarehouseConfig, WarehouseSize, HOUR_MS, MINUTE_MS,
    SECOND_MS,
};
use costmodel::{GapModel, ReplayConfig, WarehouseCostModel};
use keebo::{ConstraintSet, Rule, RuleEffect, TimeWindow};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Cases per property. Case `n` draws its inputs from
/// `StdRng::seed_from_u64(n)` and every assert message names the case, so a
/// failure is reproducible from its output alone. The simulator-backed
/// properties run the same count: all ten finish in well under a second in
/// the debug profile.
const CASES: u64 = 256;

fn arb_size(rng: &mut StdRng) -> WarehouseSize {
    WarehouseSize::from_index(rng.gen_range(0..10)).unwrap()
}

/// Billing: every session bills at least the 60-second minimum and
/// scales linearly past it.
#[test]
fn session_credits_respect_minimum_and_linearity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let size = arb_size(&mut rng);
        let duration_ms = rng.gen_range(0u64..10_000_000);
        let credits = session_credits(size, duration_ms);
        // The paper's 60 s, spelled out: measured against `MIN_BILL_SECONDS`
        // this assert would follow the constant wherever it went.
        let min = 60.0 * size.credits_per_second();
        assert!(
            credits >= min - 1e-12,
            "case {case}: {size:?} for {duration_ms} ms bills {credits} < minimum {min}"
        );
        // Doubling a long session doubles its cost.
        if duration_ms > 200_000 {
            let double = session_credits(size, duration_ms * 2);
            let ratio = double / credits;
            assert!((ratio - 2.0).abs() < 0.02, "case {case}: ratio {ratio}");
        }
    }
}

/// Billing: hourly attribution conserves the session total.
#[test]
fn hourly_attribution_conserves_credits() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let size = arb_size(&mut rng);
        let start = rng.gen_range(0..100 * HOUR_MS);
        let duration_ms = rng.gen_range(1..5 * HOUR_MS);
        let mut h = HourlyCredits::new();
        h.add_session(size, start, start + duration_ms);
        let direct = session_credits(size, duration_ms);
        // Sub-second rounding differs by at most one second's worth.
        assert!(
            (h.total() - direct).abs() <= size.credits_per_second() + 1e-9,
            "case {case}: {size:?} start {start} dur {duration_ms}: {} vs {direct}",
            h.total()
        );
    }
}

/// Simulator: every submitted query eventually completes exactly once,
/// with start >= arrival and end > start.
#[test]
fn queries_are_conserved() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(1usize..40);
        let concurrency = rng.gen_range(1u32..8);
        let max_clusters = rng.gen_range(1u32..4);
        let mut account = Account::new();
        let wh = account.create_warehouse(
            "WH",
            WarehouseConfig::new(WarehouseSize::Small)
                .with_auto_suspend_secs(60)
                .with_clusters(1, max_clusters)
                .with_max_concurrency(concurrency),
        );
        let mut sim = Simulator::new(account);
        for i in 0..n {
            let arrival = rng.gen_range(0..2 * HOUR_MS);
            let work = rng.gen_range(1_000.0..120_000.0);
            sim.submit_query(
                wh,
                QuerySpec::builder(i as u64)
                    .work_ms_xs(work)
                    .arrival_ms(arrival)
                    .build(),
            );
        }
        sim.run_to_completion();
        let records = sim.account().query_records();
        assert_eq!(records.len(), n, "case {case}: all queries complete");
        let mut seen = std::collections::HashSet::new();
        for r in records {
            assert!(
                seen.insert(r.query_id),
                "case {case}: query {} completed twice",
                r.query_id
            );
            assert!(r.start >= r.arrival, "case {case}: {r:?}");
            assert!(r.end > r.start, "case {case}: {r:?}");
            assert!(
                r.cluster_count >= 1 && r.cluster_count <= max_clusters,
                "case {case}: {r:?}"
            );
        }
        // Billing is non-negative and bounded by always-on at max scale.
        let credits = sim.account().ledger().warehouse("WH").total();
        let horizon_hours = sim.now() as f64 / HOUR_MS as f64;
        let upper =
            WarehouseSize::Small.credits_per_hour() * max_clusters as f64 * (horizon_hours + 1.0);
        assert!(
            credits >= 0.0 && credits <= upper,
            "case {case}: credits {credits} vs bound {upper}"
        );
    }
}

/// Cache: warm fraction stays in [0, 1] under any operation sequence.
#[test]
fn cache_warmth_is_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let mut cache = CacheState::with_default_tau();
        for i in 0..rng.gen_range(1u64..50) {
            match rng.gen_range(0u8..3) {
                0 => cache.record_execution((i + 1) * 10_000),
                1 => cache.drop_cache(),
                _ => cache.invalidate(0.3),
            }
            let warm = cache.warm_fraction();
            assert!((0.0..=1.0).contains(&warm), "case {case} op {i}: {warm}");
        }
    }
}

/// Cost model: the without-Keebo estimate is monotonically non-decreasing
/// in the original auto-suspend interval (more idle time billed).
#[test]
fn replay_cost_monotone_in_auto_suspend() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let gap_minutes = rng.gen_range(1u64..120);
        let n = rng.gen_range(2u64..20);
        let records: Vec<cdw_sim::QueryRecord> = (0..n)
            .map(|i| cdw_sim::QueryRecord {
                query_id: i,
                warehouse: "WH".into(),
                size: WarehouseSize::Small,
                cluster_count: 1,
                text_hash: i,
                template_hash: 1,
                arrival: i * gap_minutes * MINUTE_MS,
                start: i * gap_minutes * MINUTE_MS,
                end: i * gap_minutes * MINUTE_MS + 30 * SECOND_MS,
                bytes_scanned: 0,
                cache_warm_fraction: 1.0,
            })
            .collect();
        let model = WarehouseCostModel::default();
        let mut last = 0.0;
        for auto_secs in [30u64, 120, 600, 1800] {
            let cfg = ReplayConfig {
                original: WarehouseConfig::new(WarehouseSize::Small)
                    .with_auto_suspend_secs(auto_secs),
                window_start: 0,
                window_end: (n + 1) * gap_minutes * MINUTE_MS + HOUR_MS,
            };
            let cost = model.replay(&records, &cfg).estimated_credits;
            assert!(
                cost >= last - 1e-9,
                "case {case}: auto {auto_secs}: {cost} < {last}"
            );
            last = cost;
        }
    }
}

/// Cost model: replaying at a larger original size never costs less for
/// serial, gap-dominated workloads.
#[test]
fn replay_cost_monotone_in_size_for_sparse_work() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let records: Vec<cdw_sim::QueryRecord> = (0..10u64)
            .map(|i| {
                let arrival = i * HOUR_MS + rng.gen_range(0..30 * MINUTE_MS);
                cdw_sim::QueryRecord {
                    query_id: i,
                    warehouse: "WH".into(),
                    size: WarehouseSize::Small,
                    cluster_count: 1,
                    text_hash: i,
                    template_hash: 1,
                    arrival,
                    start: arrival,
                    end: arrival + rng.gen_range(10u64..120) * SECOND_MS,
                    bytes_scanned: 0,
                    cache_warm_fraction: 1.0,
                }
            })
            .collect();
        let model = WarehouseCostModel::default();
        let cost_at = |size: WarehouseSize| {
            model
                .replay(
                    &records,
                    &ReplayConfig {
                        original: WarehouseConfig::new(size).with_auto_suspend_secs(600),
                        window_start: 0,
                        window_end: 12 * HOUR_MS,
                    },
                )
                .estimated_credits
        };
        let (small, medium, xlarge) = (
            cost_at(WarehouseSize::Small),
            cost_at(WarehouseSize::Medium),
            cost_at(WarehouseSize::XLarge),
        );
        assert!(
            medium >= small - 1e-9,
            "case {case}: Medium {medium} < Small {small}"
        );
        assert!(
            xlarge >= medium - 1e-9,
            "case {case}: XLarge {xlarge} < Medium {medium}"
        );
    }
}

/// Gap model: the billable gap clamp never exceeds either input.
#[test]
fn billable_gap_clamp_bounds() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let gap = rng.gen_range(0..10 * HOUR_MS);
        let auto = rng.gen_range(1..2 * HOUR_MS);
        let clamped = GapModel::clamp_billable_gap(gap, auto);
        assert!(
            clamped <= gap && clamped <= auto,
            "case {case}: clamp({gap}, {auto}) = {clamped}"
        );
    }
}

/// Constraints: the action mask always permits at least one action, and
/// every permitted action produces a valid configuration.
#[test]
fn constraint_masks_are_safe() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let size = arb_size(&mut rng);
        let max_clusters = rng.gen_range(1u32..10);
        let auto_secs = [30u64, 60, 300, 600, 1800, 3600][rng.gen_range(0usize..6)];
        let hour = rng.gen_range(0u64..24);
        let min_size = arb_size(&mut rng);
        let config = WarehouseConfig::new(size)
            .with_auto_suspend_secs(auto_secs)
            .with_clusters(1, max_clusters);
        let cs = ConstraintSet::new()
            .with_rule(Rule::new(
                "floor",
                TimeWindow::daily(8.0, 18.0),
                RuleEffect::MinSize(min_size),
            ))
            .with_rule(Rule::new(
                "no-suspend-night",
                TimeWindow::daily(22.0, 2.0),
                RuleEffect::NoSuspend,
            ));
        let t = hour * HOUR_MS;
        let mask = cs.action_mask(&config, t);
        let inputs = format!("case {case}: {config:?} floor {min_size:?} hour {hour}");
        assert!(
            mask.iter().any(|&m| m),
            "{inputs}: mask must never be empty"
        );
        for (i, action) in agent::AgentAction::ALL.iter().enumerate() {
            if mask[i] {
                let next = action.target_config(&config);
                assert!(
                    next.validate().is_ok(),
                    "{inputs}: {action:?} broke the config"
                );
                // NoOp is exempt: it is always maskable so the mask is never
                // empty, even when the standing config predates a rule it
                // already violates.
                if *action != agent::AgentAction::NoOp {
                    assert!(
                        cs.allows(*action, &config, t),
                        "{inputs}: mask permits {action:?}, which a rule forbids"
                    );
                }
            }
        }
    }
}

/// Telemetry percentile: result is always an element of the input and
/// monotone in p.
#[test]
fn percentile_selects_monotonically() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let mut values: Vec<f64> = (0..rng.gen_range(1..100))
            .map(|_| rng.gen_range(0.0..1e6))
            .collect();
        let (p1, p2) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = telemetry::percentile(&values, lo);
        let b = telemetry::percentile(&values, hi);
        assert!(a <= b, "case {case}: p{lo} = {a} > p{hi} = {b}");
        values.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!(values.contains(&a), "case {case}: {a} is not an input");
    }
}

/// Simulator determinism under arbitrary seeds: two identical runs give
/// byte-identical telemetry.
#[test]
fn simulation_is_deterministic() {
    for case in 0..CASES {
        let run = || {
            let mut account = Account::new();
            let wh = account.create_warehouse(
                "WH",
                WarehouseConfig::new(WarehouseSize::Small)
                    .with_auto_suspend_secs(120)
                    .with_clusters(1, 3)
                    .with_max_concurrency(2),
            );
            let mut sim = Simulator::new(account);
            for q in keebo::generate_trace(&workload::BiWorkload::default(), 0, 6 * HOUR_MS, case) {
                sim.submit_query(wh, q);
            }
            sim.run_until(8 * HOUR_MS);
            (
                sim.account().ledger().warehouse("WH").total(),
                sim.account().query_records().to_vec(),
            )
        };
        let (c1, r1) = run();
        let (c2, r2) = run();
        assert_eq!(c1, c2, "case {case}: credits differ between runs");
        assert_eq!(r1, r2, "case {case}: query records differ between runs");
    }
}
