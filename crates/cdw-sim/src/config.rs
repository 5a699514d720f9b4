//! Warehouse configuration — the knobs KWO optimizes.

use crate::api::WarehouseCommand;
use crate::policy::ScalingPolicy;
use crate::size::WarehouseSize;
use crate::time::{SimTime, SECOND_MS};
use serde::{Deserialize, Serialize};

/// The user-settable configuration of one virtual warehouse. These are
/// exactly the knobs §3 of the paper discusses: size (memory optimization via
/// resize), auto-suspend interval (memory optimization), and the min/max
/// cluster range plus scaling policy (warehouse parallelism).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarehouseConfig {
    /// T-shirt size; applies to every cluster of the warehouse.
    pub size: WarehouseSize,
    /// Idle time after which the warehouse auto-suspends.
    pub auto_suspend_ms: SimTime,
    /// Whether the warehouse resumes automatically when a query arrives.
    pub auto_resume: bool,
    /// Minimum clusters kept running while the warehouse is resumed.
    pub min_clusters: u32,
    /// Maximum clusters the warehouse may scale out to.
    pub max_clusters: u32,
    /// Dynamic scale-out policy.
    pub scaling_policy: ScalingPolicy,
    /// Concurrent queries one cluster can run before queuing (Snowflake's
    /// MAX_CONCURRENCY_LEVEL, default 8).
    pub max_concurrency: u32,
}

impl WarehouseConfig {
    /// Snowflake's default auto-suspend: 10 minutes.
    pub const DEFAULT_AUTO_SUSPEND_MS: SimTime = 600 * SECOND_MS;

    /// Creates a single-cluster warehouse of `size` with Snowflake-ish
    /// defaults (auto-suspend 10 min, auto-resume on, concurrency 8).
    pub fn new(size: WarehouseSize) -> Self {
        Self {
            size,
            auto_suspend_ms: Self::DEFAULT_AUTO_SUSPEND_MS,
            auto_resume: true,
            min_clusters: 1,
            max_clusters: 1,
            scaling_policy: ScalingPolicy::Standard,
            max_concurrency: 8,
        }
    }

    /// Sets the auto-suspend interval in seconds.
    pub fn with_auto_suspend_secs(mut self, secs: u64) -> Self {
        self.auto_suspend_ms = secs * SECOND_MS;
        self
    }

    /// Sets the multi-cluster range.
    pub fn with_clusters(mut self, min: u32, max: u32) -> Self {
        self.min_clusters = min;
        self.max_clusters = max;
        self
    }

    /// Sets the scale-out policy.
    pub fn with_policy(mut self, policy: ScalingPolicy) -> Self {
        self.scaling_policy = policy;
        self
    }

    /// Sets per-cluster concurrency.
    pub fn with_max_concurrency(mut self, c: u32) -> Self {
        self.max_concurrency = c;
        self
    }

    /// Checks structural invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_clusters == 0 {
            return Err("min_clusters must be at least 1".into());
        }
        if self.max_clusters < self.min_clusters {
            return Err(format!(
                "max_clusters ({}) < min_clusters ({})",
                self.max_clusters, self.min_clusters
            ));
        }
        if self.max_clusters > 10 {
            return Err(format!(
                "max_clusters ({}) exceeds the product limit of 10",
                self.max_clusters
            ));
        }
        if self.max_concurrency == 0 {
            return Err("max_concurrency must be at least 1".into());
        }
        if self.scaling_policy == ScalingPolicy::Maximized && self.min_clusters != self.max_clusters
        {
            return Err("Maximized mode requires min_clusters == max_clusters".into());
        }
        Ok(())
    }

    /// The `ALTER WAREHOUSE` commands that turn `self` into `target`, one
    /// per knob that differs, in a fixed order: scaling policy, cluster
    /// range, size, auto-suspend. Policy comes first so that leaving
    /// Maximized (which requires min == max) relaxes before the range moves.
    pub fn commands_to(&self, target: &WarehouseConfig) -> Vec<WarehouseCommand> {
        let mut cmds = Vec::new();
        if self.scaling_policy != target.scaling_policy {
            cmds.push(WarehouseCommand::SetScalingPolicy(target.scaling_policy));
        }
        if (self.min_clusters, self.max_clusters) != (target.min_clusters, target.max_clusters) {
            cmds.push(WarehouseCommand::SetClusterRange {
                min: target.min_clusters,
                max: target.max_clusters,
            });
        }
        if self.size != target.size {
            cmds.push(WarehouseCommand::SetSize(target.size));
        }
        if self.auto_suspend_ms != target.auto_suspend_ms {
            cmds.push(WarehouseCommand::SetAutoSuspend {
                ms: target.auto_suspend_ms,
            });
        }
        cmds
    }

    /// The configuration `cmds` would produce from `self`, whether or not
    /// the control plane applies them. Suspend and resume are runtime
    /// state, not configuration, and leave it unchanged.
    pub fn after(&self, cmds: &[WarehouseCommand]) -> WarehouseConfig {
        let mut cfg = self.clone();
        for cmd in cmds {
            match *cmd {
                WarehouseCommand::SetSize(size) => cfg.size = size,
                WarehouseCommand::SetAutoSuspend { ms } => cfg.auto_suspend_ms = ms,
                WarehouseCommand::SetClusterRange { min, max } => {
                    cfg.min_clusters = min;
                    cfg.max_clusters = max;
                }
                WarehouseCommand::SetScalingPolicy(p) => cfg.scaling_policy = p,
                WarehouseCommand::Suspend | WarehouseCommand::Resume => {}
            }
        }
        cfg
    }

    /// Total compute throughput when `n` clusters are running, relative to a
    /// single X-Small cluster.
    pub fn throughput_with_clusters(&self, n: u32) -> f64 {
        self.size.relative_throughput() * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_snowflake_conventions() {
        let c = WarehouseConfig::new(WarehouseSize::Medium);
        assert_eq!(c.auto_suspend_ms, 600_000);
        assert!(c.auto_resume);
        assert_eq!(c.min_clusters, 1);
        assert_eq!(c.max_clusters, 1);
        assert_eq!(c.max_concurrency, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let c = WarehouseConfig::new(WarehouseSize::Large)
            .with_auto_suspend_secs(60)
            .with_clusters(2, 5)
            .with_policy(ScalingPolicy::Economy)
            .with_max_concurrency(4);
        assert_eq!(c.auto_suspend_ms, 60_000);
        assert_eq!((c.min_clusters, c.max_clusters), (2, 5));
        assert_eq!(c.scaling_policy, ScalingPolicy::Economy);
        assert_eq!(c.max_concurrency, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_min_clusters() {
        let mut c = WarehouseConfig::new(WarehouseSize::XSmall);
        c.min_clusters = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_inverted_cluster_range() {
        let c = WarehouseConfig::new(WarehouseSize::XSmall).with_clusters(5, 2);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_maximized_with_unequal_range() {
        let c = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(1, 3)
            .with_policy(ScalingPolicy::Maximized);
        assert!(c.validate().is_err());
        let ok = WarehouseConfig::new(WarehouseSize::XSmall)
            .with_clusters(3, 3)
            .with_policy(ScalingPolicy::Maximized);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_rejects_excessive_clusters() {
        let c = WarehouseConfig::new(WarehouseSize::XSmall).with_clusters(1, 11);
        assert!(c.validate().is_err());
    }

    #[test]
    fn commands_to_cover_every_knob() {
        let target = WarehouseConfig::new(WarehouseSize::Small)
            .with_auto_suspend_secs(120)
            .with_clusters(2, 4)
            .with_policy(ScalingPolicy::Economy);
        let current = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
        let cmds = current.commands_to(&target);
        assert_eq!(
            cmds,
            [
                WarehouseCommand::SetScalingPolicy(ScalingPolicy::Economy),
                WarehouseCommand::SetClusterRange { min: 2, max: 4 },
                WarehouseCommand::SetSize(WarehouseSize::Small),
                WarehouseCommand::SetAutoSuspend { ms: 120_000 },
            ]
        );
        assert_eq!(current.after(&cmds), target);
        assert!(target.commands_to(&target).is_empty());
    }

    #[test]
    fn throughput_scales_with_size_and_clusters() {
        let c = WarehouseConfig::new(WarehouseSize::Medium).with_clusters(1, 4);
        assert_eq!(c.throughput_with_clusters(1), 4.0);
        assert_eq!(c.throughput_with_clusters(4), 16.0);
    }
}
