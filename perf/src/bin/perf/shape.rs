//! The four workloads' shapes and sizes.
//!
//! Per-tenant shape and horizon are the workload's definition; the tenant
//! count is the one calibrated number, set so one drive of the workload
//! takes a few seconds on the 2-core reference host and a run of
//! `run_seconds` sees several of them — except `fleet_retrain`, whose one
//! drive fills the run: its savings are only steady across seeds when
//! pooled over four tenants (see README, "Calibration"). Load never scales
//! with the host's core count.

use cdw_sim::{SimTime, WarehouseConfig, WarehouseSize, DAY_MS, HOUR_MS, MINUTE_MS};
use keebo::{GatewayConfig, KwoSetup};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Retrain,
    Durable,
    Gateway,
}

#[derive(Debug, Clone)]
pub struct Shape {
    pub kind: Kind,
    pub tenants: usize,
    pub warehouses_per_tenant: usize,
    /// `fleet_mix`'s scaled-down generators.
    pub light: bool,
    pub observe_ms: SimTime,
    pub until_ms: SimTime,
    /// `fleet_durable`: when every orchestrator is killed and restored.
    pub kill_ms: SimTime,
    /// `gateway_serve`: control ticks served after the observed day.
    pub gateway_ticks: u64,
    pub setup: KwoSetup,
    pub config: WarehouseConfig,
    /// Pool workers the drive may use. Fleet workloads run at 1 so layer
    /// shares add up; the gateway is the workload that exercises the pool.
    pub pool_width: usize,
}

/// The `fleet_scale` bench's setup: 30-minute ticks, a short onboarding, and
/// no retraining inside the horizon, so the event loop and the cheap
/// per-tick path do nearly all the work.
fn steady_setup() -> KwoSetup {
    KwoSetup {
        realtime_interval_ms: 30 * MINUTE_MS,
        onboarding_episodes: 2,
        refresh_episodes: 0,
        train_interval_ms: 30 * DAY_MS,
        ..KwoSetup::default()
    }
}

impl Shape {
    pub fn of(name: &str, smoke: bool) -> Option<Shape> {
        let fleet_config = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600);
        let shape = match name {
            "fleet_steady" => Shape {
                kind: Kind::Steady,
                tenants: if smoke { 2 } else { 12 },
                warehouses_per_tenant: 4,
                light: true,
                observe_ms: DAY_MS,
                until_ms: if smoke { 2 * DAY_MS } else { 7 * DAY_MS },
                kill_ms: 0,
                gateway_ticks: 0,
                setup: steady_setup(),
                config: fleet_config,
                pool_width: 1,
            },
            // The paper's cadence, `KwoSetup::default()`: 10-minute ticks,
            // 5 onboarding episodes, a daily retrain on a 3-day window.
            "fleet_retrain" => Shape {
                kind: Kind::Retrain,
                tenants: if smoke { 1 } else { 4 },
                warehouses_per_tenant: if smoke { 1 } else { 4 },
                light: smoke,
                observe_ms: if smoke { DAY_MS } else { 3 * DAY_MS },
                until_ms: if smoke { 3 * DAY_MS } else { 10 * DAY_MS },
                kill_ms: 0,
                gateway_ticks: 0,
                setup: KwoSetup::default(),
                config: fleet_config,
                pool_width: 1,
            },
            "fleet_durable" => Shape {
                kind: Kind::Durable,
                tenants: if smoke { 2 } else { 8 },
                warehouses_per_tenant: 4,
                light: true,
                observe_ms: DAY_MS,
                until_ms: if smoke { 2 * DAY_MS } else { 5 * DAY_MS },
                kill_ms: if smoke {
                    36 * HOUR_MS
                } else {
                    3 * DAY_MS + 12 * HOUR_MS
                },
                gateway_ticks: 0,
                setup: steady_setup(),
                config: fleet_config,
                pool_width: 1,
            },
            "gateway_serve" => {
                let ticks: u64 = if smoke { 8 } else { 336 };
                Shape {
                    kind: Kind::Gateway,
                    tenants: if smoke { 4 } else { 32 },
                    warehouses_per_tenant: 2,
                    light: true,
                    observe_ms: DAY_MS,
                    until_ms: DAY_MS + ticks * gateway_config().tick_ms,
                    kill_ms: 0,
                    gateway_ticks: ticks,
                    setup: steady_setup(),
                    config: WarehouseConfig::new(WarehouseSize::Medium)
                        .with_auto_suspend_secs(1800),
                    pool_width: 2,
                }
            }
            _ => return None,
        };
        Some(shape)
    }

    pub fn warehouses(&self) -> usize {
        self.tenants * self.warehouses_per_tenant
    }

    /// Simulated warehouse-days one drive covers.
    pub fn wh_days(&self) -> f64 {
        self.warehouses() as f64 * self.until_ms as f64 / DAY_MS as f64
    }

    /// The sizes recorded in the run manifest.
    pub fn sizes(&self) -> BTreeMap<String, u64> {
        [
            ("tenants", self.tenants as u64),
            ("warehouses_per_tenant", self.warehouses_per_tenant as u64),
            ("observe_hours", self.observe_ms / HOUR_MS),
            ("sim_hours", self.until_ms / HOUR_MS),
            ("tick_minutes", self.setup.realtime_interval_ms / MINUTE_MS),
            ("gateway_ticks", self.gateway_ticks),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// The `bench/gateway` configuration: admission outpaces dispatch (about 3
/// admits against 2 slots per tenant-tick), so the bounded queues fill and
/// the run exercises queue waits and queue-full sheds, not just the bucket.
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        tick_ms: 30 * MINUTE_MS,
        bucket_capacity: 6.0,
        refill_per_tick: 3.0,
        quota: 10_000,
        queue_capacity: 8,
        batch_per_tenant: 2,
        reserved_batch_slots: 1,
    }
}

pub const GATEWAY_MEAN_REQUESTS_PER_TICK: f64 = 3.0;
pub const GATEWAY_INTERACTIVE_FRACTION: f64 = 0.4;
pub const GATEWAY_CLIENTS_PER_TENANT: usize = 4;
