//! The command surface KWO's actuator uses — the simulator's equivalent of
//! `ALTER WAREHOUSE` (§4.5 of the paper).

use crate::policy::ScalingPolicy;
use crate::size::WarehouseSize;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A configuration command against one warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarehouseCommand {
    /// `ALTER WAREHOUSE .. SET WAREHOUSE_SIZE = ..`
    SetSize(WarehouseSize),
    /// `ALTER WAREHOUSE .. SET AUTO_SUSPEND = <seconds>`
    SetAutoSuspend { ms: SimTime },
    /// `ALTER WAREHOUSE .. SET MIN_CLUSTER_COUNT = .. MAX_CLUSTER_COUNT = ..`
    SetClusterRange { min: u32, max: u32 },
    /// `ALTER WAREHOUSE .. SET SCALING_POLICY = ..`
    SetScalingPolicy(ScalingPolicy),
    /// `ALTER WAREHOUSE .. SUSPEND`
    Suspend,
    /// `ALTER WAREHOUSE .. RESUME`
    Resume,
}

impl WarehouseCommand {
    /// Rejects commands that are malformed regardless of the warehouse they
    /// target (the per-warehouse check against the full resulting config
    /// happens later in `apply_command`). A real CDW rejects these at parse
    /// time, before touching any state.
    pub fn validate(&self) -> Result<(), AlterError> {
        match self {
            WarehouseCommand::SetClusterRange { min, max } => {
                if *min == 0 {
                    return Err(AlterError::InvalidConfig(
                        "MIN_CLUSTER_COUNT must be at least 1".into(),
                    ));
                }
                if min > max {
                    return Err(AlterError::InvalidConfig(format!(
                        "MIN_CLUSTER_COUNT ({min}) exceeds MAX_CLUSTER_COUNT ({max})"
                    )));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Renders the command as the SQL the actuator would send to a real CDW.
    /// Purely informational (action logs, dashboards).
    pub fn to_sql(&self, warehouse: &str) -> String {
        match self {
            WarehouseCommand::SetSize(s) => {
                format!(
                    "ALTER WAREHOUSE {warehouse} SET WAREHOUSE_SIZE={}",
                    s.sql_name()
                )
            }
            WarehouseCommand::SetAutoSuspend { ms } => {
                format!("ALTER WAREHOUSE {warehouse} SET AUTO_SUSPEND={}", ms / 1000)
            }
            WarehouseCommand::SetClusterRange { min, max } => format!(
                "ALTER WAREHOUSE {warehouse} SET MIN_CLUSTER_COUNT={min} MAX_CLUSTER_COUNT={max}"
            ),
            WarehouseCommand::SetScalingPolicy(p) => {
                format!(
                    "ALTER WAREHOUSE {warehouse} SET SCALING_POLICY={}",
                    p.sql_name()
                )
            }
            WarehouseCommand::Suspend => format!("ALTER WAREHOUSE {warehouse} SUSPEND"),
            WarehouseCommand::Resume => format!("ALTER WAREHOUSE {warehouse} RESUME"),
        }
    }
}

/// Errors returned by the warehouse API.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlterError {
    /// No warehouse with that name.
    UnknownWarehouse(String),
    /// The command would produce an invalid configuration.
    InvalidConfig(String),
    /// Suspending a warehouse that is already suspended (Snowflake errors
    /// on this; callers treat it as a no-op-with-warning).
    AlreadySuspended,
    /// Resuming a warehouse that is already running.
    AlreadyRunning,
    /// Transient control-plane failure; the command was not applied and
    /// retrying after a backoff is expected to succeed.
    ServiceUnavailable,
    /// The control plane rejected the request due to rate limiting; retry
    /// after a backoff.
    Throttled,
}

impl AlterError {
    /// Whether retrying the same command later can reasonably succeed.
    ///
    /// `AlreadySuspended`/`AlreadyRunning` are benign no-ops, not retryable
    /// failures; `UnknownWarehouse`/`InvalidConfig` are permanent — retrying
    /// the identical command cannot help.
    pub fn is_transient(&self) -> bool {
        matches!(self, AlterError::ServiceUnavailable | AlterError::Throttled)
    }

    /// Whether the command found the warehouse already in the state it
    /// asked for: a no-op, not a failure.
    pub fn is_benign(&self) -> bool {
        matches!(
            self,
            AlterError::AlreadySuspended | AlterError::AlreadyRunning
        )
    }
}

impl fmt::Display for AlterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlterError::UnknownWarehouse(name) => write!(f, "unknown warehouse: {name}"),
            AlterError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AlterError::AlreadySuspended => write!(f, "warehouse is already suspended"),
            AlterError::AlreadyRunning => write!(f, "warehouse is already running"),
            AlterError::ServiceUnavailable => {
                write!(f, "service temporarily unavailable, retry later")
            }
            AlterError::Throttled => write!(f, "request throttled, retry later"),
        }
    }
}

impl std::error::Error for AlterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_size_sql_matches_paper_example() {
        // The paper's §4.5 example: ALTER WAREHOUSE COMPUTE_WH SET WAREHOUSE_SIZE=MEDIUM
        let sql = WarehouseCommand::SetSize(WarehouseSize::Medium).to_sql("COMPUTE_WH");
        assert_eq!(sql, "ALTER WAREHOUSE COMPUTE_WH SET WAREHOUSE_SIZE=MEDIUM");
    }

    #[test]
    fn auto_suspend_sql_uses_seconds() {
        let sql = WarehouseCommand::SetAutoSuspend { ms: 90_000 }.to_sql("WH");
        assert_eq!(sql, "ALTER WAREHOUSE WH SET AUTO_SUSPEND=90");
    }

    #[test]
    fn cluster_range_sql() {
        let sql = WarehouseCommand::SetClusterRange { min: 1, max: 4 }.to_sql("WH");
        assert!(sql.contains("MIN_CLUSTER_COUNT=1"));
        assert!(sql.contains("MAX_CLUSTER_COUNT=4"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = AlterError::UnknownWarehouse("X".into());
        assert!(e.to_string().contains("X"));
        assert!(AlterError::AlreadySuspended
            .to_string()
            .contains("suspended"));
        assert!(AlterError::ServiceUnavailable.to_string().contains("retry"));
        assert!(AlterError::Throttled.to_string().contains("retry"));
    }

    #[test]
    fn transient_classification() {
        assert!(AlterError::ServiceUnavailable.is_transient());
        assert!(AlterError::Throttled.is_transient());
        assert!(!AlterError::UnknownWarehouse("X".into()).is_transient());
        assert!(!AlterError::InvalidConfig("bad".into()).is_transient());
        assert!(!AlterError::AlreadySuspended.is_transient());
        assert!(!AlterError::AlreadyRunning.is_transient());
    }

    #[test]
    fn cluster_range_rejects_zero_min() {
        let err = WarehouseCommand::SetClusterRange { min: 0, max: 3 }
            .validate()
            .unwrap_err();
        assert!(matches!(err, AlterError::InvalidConfig(_)));
        assert!(err.to_string().contains("MIN_CLUSTER_COUNT"));
    }

    #[test]
    fn cluster_range_rejects_min_above_max() {
        let err = WarehouseCommand::SetClusterRange { min: 5, max: 2 }
            .validate()
            .unwrap_err();
        assert!(matches!(err, AlterError::InvalidConfig(_)));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn valid_commands_pass_validation() {
        assert!(WarehouseCommand::SetClusterRange { min: 1, max: 1 }
            .validate()
            .is_ok());
        assert!(WarehouseCommand::SetClusterRange { min: 2, max: 8 }
            .validate()
            .is_ok());
        assert!(WarehouseCommand::SetSize(WarehouseSize::XSmall)
            .validate()
            .is_ok());
        assert!(WarehouseCommand::Suspend.validate().is_ok());
    }
}
