//! Fleet-mix builder: a whole customer fleet's worth of workloads.
//!
//! The paper's deployment optimizes many tenants at once, each with several
//! warehouses serving different traffic shapes. [`fleet_mix`] stamps out
//! `tenants × warehouses_per_tenant` members, cycling through the four
//! archetypes (ETL, BI, ad-hoc, reporting) so every tenant gets a realistic
//! mixture rather than a monoculture. Member naming is positional and
//! stable (`tenant-3/T3_WH1`), so seeds derived from names reproduce across
//! runs and thread counts.

use crate::generators::{
    AdhocWorkload, BiWorkload, EtlWorkload, ReportingWorkload, WorkloadGenerator,
};

/// One warehouse's slot in the fleet: where it lives and what it serves.
pub struct FleetMember {
    /// Tenant name, `tenant-{i}`.
    pub tenant: String,
    /// Warehouse name, unique fleet-wide: `T{i}_WH{j}`.
    pub warehouse: String,
    /// Archetype tag: `etl`, `bi`, `adhoc`, or `reporting`.
    pub archetype: &'static str,
    /// The trace generator for this warehouse.
    pub generator: Box<dyn WorkloadGenerator>,
}

fn archetype_generator(index: usize, light: bool) -> (&'static str, Box<dyn WorkloadGenerator>) {
    match index % 4 {
        0 => {
            let w = if light {
                EtlWorkload {
                    pipelines: 2,
                    queries_per_run: 2,
                    ..EtlWorkload::default()
                }
            } else {
                EtlWorkload::default()
            };
            ("etl", Box::new(w))
        }
        1 => {
            let w = if light {
                BiWorkload {
                    peak_refreshes_per_hour: 8.0,
                    dashboards: 3,
                    queries_per_refresh: 2,
                    ..BiWorkload::default()
                }
            } else {
                BiWorkload::default()
            };
            ("bi", Box::new(w))
        }
        2 => {
            let w = if light {
                AdhocWorkload {
                    mean_rate_per_hour: 4.0,
                    templates: 8,
                    ..AdhocWorkload::default()
                }
            } else {
                AdhocWorkload::default()
            };
            ("adhoc", Box::new(w))
        }
        _ => {
            let w = if light {
                ReportingWorkload {
                    queries_per_batch: 6,
                    ..ReportingWorkload::default()
                }
            } else {
                ReportingWorkload::default()
            };
            ("reporting", Box::new(w))
        }
    }
}

/// Builds a `tenants × warehouses_per_tenant` fleet with archetypes cycled
/// across the global warehouse index. `light` scales every generator down
/// (fewer pipelines/dashboards/templates) for smoke runs and CI.
pub fn fleet_mix(tenants: usize, warehouses_per_tenant: usize, light: bool) -> Vec<FleetMember> {
    let mut members = Vec::with_capacity(tenants * warehouses_per_tenant);
    for t in 0..tenants {
        for w in 0..warehouses_per_tenant {
            let index = t * warehouses_per_tenant + w;
            let (archetype, generator) = archetype_generator(index, light);
            members.push(FleetMember {
                tenant: format!("tenant-{t}"),
                warehouse: format!("T{t}_WH{w}"),
                archetype,
                generator,
            });
        }
    }
    members
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::generate_trace;
    use cdw_sim::DAY_MS;

    #[test]
    fn fleet_mix_cycles_archetypes_and_names_uniquely() {
        let members = fleet_mix(2, 4, true);
        assert_eq!(members.len(), 8);
        let archetypes: Vec<&str> = members.iter().map(|m| m.archetype).collect();
        assert_eq!(
            &archetypes[..4],
            &["etl", "bi", "adhoc", "reporting"],
            "first tenant cycles through all four archetypes"
        );
        let names: std::collections::HashSet<&str> =
            members.iter().map(|m| m.warehouse.as_str()).collect();
        assert_eq!(names.len(), members.len(), "warehouse names are unique");
        assert_eq!(members[5].tenant, "tenant-1");
    }

    #[test]
    fn light_mix_generates_fewer_queries() {
        let light = fleet_mix(1, 1, true);
        let full = fleet_mix(1, 1, false);
        let l = generate_trace(light[0].generator.as_ref(), 0, DAY_MS, 9);
        let f = generate_trace(full[0].generator.as_ref(), 0, DAY_MS, 9);
        assert!(!l.is_empty());
        assert!(l.len() < f.len());
    }
}
