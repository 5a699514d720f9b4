//! Per-template execution-time estimation for the Fig. 5 experiment.
//!
//! Fig. 5 asks the cost model to "estimate the actual costs ... *without
//! running any queries*". The replay engine consumes query records with
//! observed execution times; for an unexecuted workload those must
//! themselves be estimated from history. This estimator fills in each
//! query's expected execution time from the per-template mean observed
//! during the training period (with a global fallback), which is exactly
//! the "identical or at least similar queries" lookup of §5.2.

use cdw_sim::{QueryRecord, QuerySpec, SimTime, WarehouseConfig, WarehouseName, WarehouseSize};
use costmodel::LatencyScaler;
use std::collections::BTreeMap;

/// Mean observed execution time per template, normalized to one reference
/// size using the latency scaler.
#[derive(Debug, Clone)]
pub struct TemplateExecEstimator {
    reference: WarehouseSize,
    per_template_ms: BTreeMap<u64, f64>,
    global_ms: f64,
}

impl TemplateExecEstimator {
    /// Trains from history, normalizing every observation to `reference`
    /// size via `scaler`.
    pub fn train(
        records: &[QueryRecord],
        scaler: &LatencyScaler,
        reference: WarehouseSize,
    ) -> Self {
        let mut sums: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
        let mut total = 0.0;
        let mut count = 0usize;
        for r in records {
            let exec = r.execution_ms();
            if exec == 0 {
                continue;
            }
            let at_ref = scaler.scale_execution_ms(r.template_hash, exec as f64, r.size, reference);
            let e = sums.entry(r.template_hash).or_insert((0.0, 0));
            e.0 += at_ref;
            e.1 += 1;
            total += at_ref;
            count += 1;
        }
        Self {
            reference,
            per_template_ms: sums
                .into_iter()
                .map(|(k, (s, n))| (k, s / n as f64))
                .collect(),
            global_ms: if count > 0 {
                total / count as f64
            } else {
                10_000.0
            },
        }
    }

    /// Expected execution time (ms) of `template` at `size`.
    pub fn estimate_ms(&self, template: u64, size: WarehouseSize, scaler: &LatencyScaler) -> f64 {
        let at_ref = self
            .per_template_ms
            .get(&template)
            .copied()
            .unwrap_or(self.global_ms);
        scaler.scale_execution_ms(template, at_ref, self.reference, size)
    }

    /// Builds *predicted* query records for an unexecuted workload: arrivals
    /// and templates from the specs, execution times from history. These
    /// feed the replay engine to produce the Fig. 5 estimate.
    pub fn predict_records(
        &self,
        specs: &[QuerySpec],
        config: &WarehouseConfig,
        scaler: &LatencyScaler,
        warehouse: &str,
    ) -> Vec<QueryRecord> {
        let warehouse = WarehouseName::from(warehouse);
        specs
            .iter()
            .map(|s| {
                let exec = self
                    .estimate_ms(s.template_hash, config.size, scaler)
                    .round()
                    .max(1.0) as SimTime;
                QueryRecord {
                    query_id: s.id,
                    warehouse: warehouse.clone(),
                    size: config.size,
                    cluster_count: 1,
                    text_hash: s.text_hash,
                    template_hash: s.template_hash,
                    arrival: s.arrival,
                    start: s.arrival,
                    end: s.arrival + exec,
                    bytes_scanned: s.bytes_scanned,
                    cache_warm_fraction: 0.5,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(template: u64, size: WarehouseSize, exec: SimTime) -> QueryRecord {
        QueryRecord {
            query_id: 0,
            warehouse: "WH".into(),
            size,
            cluster_count: 1,
            text_hash: 0,
            template_hash: template,
            arrival: 0,
            start: 0,
            end: exec,
            bytes_scanned: 0,
            cache_warm_fraction: 1.0,
        }
    }

    #[test]
    fn estimates_template_mean_at_reference_size() {
        let recs = vec![
            rec(1, WarehouseSize::XSmall, 10_000),
            rec(1, WarehouseSize::XSmall, 14_000),
        ];
        let scaler = LatencyScaler::default();
        let est = TemplateExecEstimator::train(&recs, &scaler, WarehouseSize::XSmall);
        let e = est.estimate_ms(1, WarehouseSize::XSmall, &scaler);
        assert!((e - 12_000.0).abs() < 1.0);
    }

    #[test]
    fn scales_across_sizes_with_default_slope() {
        let recs = vec![rec(1, WarehouseSize::XSmall, 16_000)];
        let scaler = LatencyScaler::default();
        let est = TemplateExecEstimator::train(&recs, &scaler, WarehouseSize::XSmall);
        let at_medium = est.estimate_ms(1, WarehouseSize::Medium, &scaler);
        assert!((at_medium - 4_000.0).abs() < 1.0);
    }

    #[test]
    fn unknown_template_uses_global_mean() {
        let recs = vec![
            rec(1, WarehouseSize::XSmall, 10_000),
            rec(2, WarehouseSize::XSmall, 30_000),
        ];
        let scaler = LatencyScaler::default();
        let est = TemplateExecEstimator::train(&recs, &scaler, WarehouseSize::XSmall);
        let e = est.estimate_ms(999, WarehouseSize::XSmall, &scaler);
        assert!((e - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn predicted_records_preserve_arrivals() {
        let scaler = LatencyScaler::default();
        let est = TemplateExecEstimator::train(
            &[rec(1, WarehouseSize::XSmall, 5_000)],
            &scaler,
            WarehouseSize::XSmall,
        );
        let specs = vec![QuerySpec::builder(7)
            .template_hash(1)
            .arrival_ms(42_000)
            .build()];
        let cfg = WarehouseConfig::new(WarehouseSize::XSmall);
        let out = est.predict_records(&specs, &cfg, &scaler, "WH");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arrival, 42_000);
        assert_eq!(out[0].end - out[0].start, 5_000);
    }
}
