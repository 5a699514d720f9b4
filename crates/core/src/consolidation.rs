//! Warehouse consolidation advisor.
//!
//! §1 of the paper lists "consolidating multiple warehouses into one, and
//! load balancing decisions" among the warehouse-optimization actions.
//! Organizations routinely end up with several half-idle warehouses whose
//! combined bill (each paying its own 60-second minimums, auto-suspend
//! tails, and idle troughs) exceeds what one shared warehouse would cost.
//!
//! The advisor reuses the §5 machinery: it replays each warehouse's
//! telemetry separately under its own configuration, then replays the
//! *merged* stream under a single target configuration, and reports the
//! delta. Merging is a what-if estimate, not an action — the output is a
//! recommendation for the customer's admin (consolidation changes
//! application routing, which KWO cannot do transparently).

use cdw_sim::{QueryRecord, SimTime, WarehouseConfig};
use costmodel::{ReplayConfig, WarehouseCostModel};
use serde::{Deserialize, Serialize};

/// One candidate warehouse in a consolidation study.
#[derive(Debug, Clone)]
pub struct ConsolidationInput<'a> {
    pub name: &'a str,
    pub config: WarehouseConfig,
    pub records: &'a [QueryRecord],
}

/// The advisor's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationReport {
    /// Estimated credits if each warehouse keeps running separately.
    pub separate_credits: f64,
    /// Estimated credits for the merged stream on the target configuration.
    pub merged_credits: f64,
    /// `separate - merged`; positive means consolidation saves.
    pub estimated_savings: f64,
    /// Peak concurrent queries in the merged stream — capacity sizing input.
    pub peak_concurrency: usize,
    /// Whether the advisor recommends consolidating (savings above 5% and
    /// the target capacity can absorb the peak).
    pub recommended: bool,
}

/// Estimates the cost of merging `inputs` onto `target` over
/// `[window_start, window_end)`.
///
/// # Panics
/// Panics when `inputs` is empty or the target configuration is invalid.
pub fn evaluate_consolidation(
    model: &WarehouseCostModel,
    inputs: &[ConsolidationInput<'_>],
    target: &WarehouseConfig,
    window_start: SimTime,
    window_end: SimTime,
) -> ConsolidationReport {
    assert!(!inputs.is_empty(), "nothing to consolidate");
    #[expect(
        clippy::panic,
        reason = "documented precondition: callers pass a validated target config"
    )]
    target
        .validate()
        .unwrap_or_else(|e| panic!("invalid target config: {e}"));

    let mut separate = 0.0;
    let mut merged_records: Vec<QueryRecord> = Vec::new();
    for input in inputs {
        let outcome = model.replay(
            input.records,
            &ReplayConfig {
                original: input.config.clone(),
                window_start,
                window_end,
            },
        );
        separate += outcome.estimated_credits;
        merged_records.extend(input.records.iter().cloned());
    }
    merged_records.sort_by_key(|r| (r.arrival, r.query_id));

    let merged_outcome = model.replay(
        &merged_records,
        &ReplayConfig {
            original: target.clone(),
            window_start,
            window_end,
        },
    );

    // Peak concurrency of the merged stream (sweep-line over intervals).
    let mut events: Vec<(SimTime, i64)> = Vec::with_capacity(merged_records.len() * 2);
    for r in &merged_records {
        if (window_start..window_end).contains(&r.arrival) {
            events.push((r.start, 1));
            events.push((r.end, -1));
        }
    }
    events.sort_unstable();
    let mut level = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        level += d;
        peak = peak.max(level);
    }

    let estimated_savings = separate - merged_outcome.estimated_credits;
    let capacity = (target.max_clusters as usize) * (target.max_concurrency as usize);
    let recommended = estimated_savings > 0.05 * separate && peak as usize <= capacity;
    ConsolidationReport {
        separate_credits: separate,
        merged_credits: merged_outcome.estimated_credits,
        estimated_savings,
        peak_concurrency: peak as usize,
        recommended,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::{WarehouseSize, HOUR_MS, MINUTE_MS};

    fn rec(id: u64, warehouse: &str, arrival: SimTime, exec: SimTime) -> QueryRecord {
        QueryRecord {
            query_id: id,
            warehouse: warehouse.into(),
            size: WarehouseSize::Small,
            cluster_count: 1,
            text_hash: id,
            template_hash: 1,
            arrival,
            start: arrival,
            end: arrival + exec,
            bytes_scanned: 0,
            cache_warm_fraction: 1.0,
        }
    }

    /// Two sparse warehouses whose bursts land minutes apart: separately
    /// each pays its own auto-suspend tail per burst; merged, adjacent
    /// bursts share one running warehouse and one tail.
    fn sparse_pair() -> (Vec<QueryRecord>, Vec<QueryRecord>) {
        let a: Vec<QueryRecord> = (0..12)
            .map(|i| rec(i, "A", i * 2 * HOUR_MS, 2 * MINUTE_MS))
            .collect();
        let b: Vec<QueryRecord> = (0..12)
            .map(|i| rec(100 + i, "B", i * 2 * HOUR_MS + 5 * MINUTE_MS, 2 * MINUTE_MS))
            .collect();
        (a, b)
    }

    #[test]
    fn consolidating_sparse_warehouses_saves() {
        let (a, b) = sparse_pair();
        let cfg = WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(600);
        let model = WarehouseCostModel::default();
        let report = evaluate_consolidation(
            &model,
            &[
                ConsolidationInput {
                    name: "A",
                    config: cfg.clone(),
                    records: &a,
                },
                ConsolidationInput {
                    name: "B",
                    config: cfg.clone(),
                    records: &b,
                },
            ],
            &cfg,
            0,
            26 * HOUR_MS,
        );
        assert!(
            report.estimated_savings > 0.0,
            "interleaved sparse warehouses should merge profitably: {report:?}"
        );
        assert!(report.recommended);
        assert!(report.merged_credits < report.separate_credits);
    }

    #[test]
    fn peak_concurrency_is_computed_from_overlap() {
        let a = vec![rec(1, "A", 0, HOUR_MS)];
        let b = vec![rec(2, "B", MINUTE_MS, HOUR_MS)];
        let cfg = WarehouseConfig::new(WarehouseSize::Small);
        let model = WarehouseCostModel::default();
        let report = evaluate_consolidation(
            &model,
            &[
                ConsolidationInput {
                    name: "A",
                    config: cfg.clone(),
                    records: &a,
                },
                ConsolidationInput {
                    name: "B",
                    config: cfg.clone(),
                    records: &b,
                },
            ],
            &cfg,
            0,
            3 * HOUR_MS,
        );
        assert_eq!(report.peak_concurrency, 2);
    }

    #[test]
    fn undersized_target_is_not_recommended() {
        // 20 fully overlapping queries cannot fit one cluster with 8 slots.
        let a: Vec<QueryRecord> = (0..20).map(|i| rec(i, "A", 0, HOUR_MS)).collect();
        let cfg = WarehouseConfig::new(WarehouseSize::Small).with_max_concurrency(8);
        let model = WarehouseCostModel::default();
        let report = evaluate_consolidation(
            &model,
            &[ConsolidationInput {
                name: "A",
                config: cfg.clone(),
                records: &a,
            }],
            &cfg,
            0,
            3 * HOUR_MS,
        );
        assert!(report.peak_concurrency > 8);
        assert!(!report.recommended);
    }

    #[test]
    fn single_warehouse_consolidation_is_a_wash() {
        let a: Vec<QueryRecord> = (0..5)
            .map(|i| rec(i, "A", i * HOUR_MS, MINUTE_MS))
            .collect();
        let cfg = WarehouseConfig::new(WarehouseSize::Small).with_auto_suspend_secs(300);
        let model = WarehouseCostModel::default();
        let report = evaluate_consolidation(
            &model,
            &[ConsolidationInput {
                name: "A",
                config: cfg.clone(),
                records: &a,
            }],
            &cfg,
            0,
            6 * HOUR_MS,
        );
        assert!(report.estimated_savings.abs() < 1e-9, "{report:?}");
        assert!(!report.recommended, "no savings, no recommendation");
    }

    #[test]
    #[should_panic(expected = "nothing to consolidate")]
    fn empty_inputs_panic() {
        let model = WarehouseCostModel::default();
        let cfg = WarehouseConfig::new(WarehouseSize::Small);
        let _ = evaluate_consolidation(&model, &[], &cfg, 0, HOUR_MS);
    }
}
