//! The discrete action space of the smart model.
//!
//! Actions are knob *moves* relative to the current configuration (resize a
//! step, widen the cluster range, shorten auto-suspend...) rather than
//! absolute settings; this keeps the action space small and makes every
//! action meaningful from any state. The actuator translates a move into the
//! concrete `ALTER WAREHOUSE` command(s) (§4.5).

use cdw_sim::{SimTime, WarehouseCommand, WarehouseConfig};
use serde::{Deserialize, Serialize};

/// Discrete auto-suspend settings (ms) the agent moves between. Spans the
/// rule-of-thumb range from aggressive (30 s) to Snowflake's default-ish
/// upper end (1 h).
pub const AUTO_SUSPEND_LADDER_MS: [SimTime; 7] = [
    30_000, 60_000, 120_000, 300_000, 600_000, 1_800_000, 3_600_000,
];

/// One decision of the smart model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AgentAction {
    /// Keep everything as is.
    NoOp,
    /// Resize one T-shirt size up.
    SizeUp,
    /// Resize one T-shirt size down.
    SizeDown,
    /// Allow one more cluster (max + 1).
    ClustersUp,
    /// Allow one fewer cluster (max − 1).
    ClustersDown,
    /// Move one step up the auto-suspend ladder (suspend later).
    AutoSuspendUp,
    /// Move one step down the auto-suspend ladder (suspend sooner).
    AutoSuspendDown,
    /// Suspend the warehouse immediately (drains first).
    SuspendNow,
}

impl AgentAction {
    /// All actions, in the index order used by the Q-network output layer.
    pub const ALL: [AgentAction; 8] = [
        AgentAction::NoOp,
        AgentAction::SizeUp,
        AgentAction::SizeDown,
        AgentAction::ClustersUp,
        AgentAction::ClustersDown,
        AgentAction::AutoSuspendUp,
        AgentAction::AutoSuspendDown,
        AgentAction::SuspendNow,
    ];

    /// Number of actions (the Q-network's output dimension).
    pub const COUNT: usize = Self::ALL.len();

    /// Index in [`AgentAction::ALL`].
    pub fn index(self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "ALL enumerates every variant by construction"
        )]
        Self::ALL.iter().position(|a| *a == self).expect("in ALL")
    }

    /// The knob move that undoes this one, if any. Used by monitoring when
    /// an external change is detected: KWO "immediately reverts its own
    /// action" (§4.4).
    pub fn inverse(self) -> Option<AgentAction> {
        match self {
            AgentAction::SizeUp => Some(AgentAction::SizeDown),
            AgentAction::SizeDown => Some(AgentAction::SizeUp),
            AgentAction::ClustersUp => Some(AgentAction::ClustersDown),
            AgentAction::ClustersDown => Some(AgentAction::ClustersUp),
            AgentAction::AutoSuspendUp => Some(AgentAction::AutoSuspendDown),
            AgentAction::AutoSuspendDown => Some(AgentAction::AutoSuspendUp),
            AgentAction::NoOp | AgentAction::SuspendNow => None,
        }
    }

    /// Nearest ladder position at or below the current auto-suspend.
    fn ladder_pos(auto_suspend_ms: SimTime) -> usize {
        AUTO_SUSPEND_LADDER_MS
            .iter()
            .rposition(|&v| v <= auto_suspend_ms)
            .unwrap_or(0)
    }

    /// Whether the action changes anything from `config` (a saturating move
    /// at the boundary is pointless and masked out).
    pub fn is_applicable(self, config: &WarehouseConfig) -> bool {
        match self {
            AgentAction::NoOp => true,
            AgentAction::SizeUp => config.size.step_up() != config.size,
            AgentAction::SizeDown => config.size.step_down() != config.size,
            AgentAction::ClustersUp => config.max_clusters < 10,
            AgentAction::ClustersDown => config.max_clusters > config.min_clusters.max(1),
            AgentAction::AutoSuspendUp => {
                Self::ladder_pos(config.auto_suspend_ms) + 1 < AUTO_SUSPEND_LADDER_MS.len()
            }
            AgentAction::AutoSuspendDown => Self::ladder_pos(config.auto_suspend_ms) > 0,
            AgentAction::SuspendNow => true,
        }
    }

    /// The configuration this action produces from `config` (commands not
    /// yet applied; [`AgentAction::SuspendNow`] leaves the config unchanged).
    pub fn target_config(self, config: &WarehouseConfig) -> WarehouseConfig {
        let mut next = config.clone();
        match self {
            AgentAction::NoOp | AgentAction::SuspendNow => {}
            AgentAction::SizeUp => next.size = config.size.step_up(),
            AgentAction::SizeDown => next.size = config.size.step_down(),
            AgentAction::ClustersUp => next.max_clusters = (config.max_clusters + 1).min(10),
            AgentAction::ClustersDown => {
                next.max_clusters = config
                    .max_clusters
                    .saturating_sub(1)
                    .max(config.min_clusters)
            }
            AgentAction::AutoSuspendUp => {
                let p = Self::ladder_pos(config.auto_suspend_ms);
                next.auto_suspend_ms =
                    AUTO_SUSPEND_LADDER_MS[(p + 1).min(AUTO_SUSPEND_LADDER_MS.len() - 1)];
            }
            AgentAction::AutoSuspendDown => {
                let p = Self::ladder_pos(config.auto_suspend_ms);
                next.auto_suspend_ms = AUTO_SUSPEND_LADDER_MS[p.saturating_sub(1)];
            }
        }
        next
    }

    /// Translates the move into `ALTER WAREHOUSE` commands for the actuator:
    /// [`AgentAction::SuspendNow`] suspends, every other move changes at
    /// most one knob.
    pub fn to_commands(self, config: &WarehouseConfig) -> Vec<WarehouseCommand> {
        match self {
            AgentAction::SuspendNow => vec![WarehouseCommand::Suspend],
            _ => config.commands_to(&self.target_config(config)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::WarehouseSize;

    fn cfg() -> WarehouseConfig {
        WarehouseConfig::new(WarehouseSize::Medium)
            .with_auto_suspend_secs(300)
            .with_clusters(1, 3)
    }

    #[test]
    fn indices_are_stable_and_unique() {
        for (i, a) in AgentAction::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
        assert_eq!(AgentAction::COUNT, 8);
    }

    #[test]
    fn size_moves_produce_resize_commands() {
        let c = cfg();
        assert_eq!(
            AgentAction::SizeUp.to_commands(&c),
            vec![WarehouseCommand::SetSize(WarehouseSize::Large)]
        );
        assert_eq!(
            AgentAction::SizeDown.to_commands(&c),
            vec![WarehouseCommand::SetSize(WarehouseSize::Small)]
        );
    }

    #[test]
    fn saturated_moves_are_inapplicable() {
        let mut c = WarehouseConfig::new(WarehouseSize::XSmall);
        assert!(!AgentAction::SizeDown.is_applicable(&c));
        assert!(AgentAction::SizeUp.is_applicable(&c));
        c.size = WarehouseSize::X6Large;
        assert!(!AgentAction::SizeUp.is_applicable(&c));
        assert!(AgentAction::SizeDown.is_applicable(&c));
    }

    #[test]
    fn cluster_moves_respect_bounds() {
        let c = cfg(); // 1..3
        assert!(AgentAction::ClustersUp.is_applicable(&c));
        assert!(AgentAction::ClustersDown.is_applicable(&c));
        let mut at_min = WarehouseConfig::new(WarehouseSize::Small).with_clusters(1, 1);
        assert!(!AgentAction::ClustersDown.is_applicable(&at_min));
        at_min.max_clusters = 10;
        assert!(!AgentAction::ClustersUp.is_applicable(&at_min));
    }

    #[test]
    fn cluster_down_never_crosses_min() {
        let c = WarehouseConfig::new(WarehouseSize::Small).with_clusters(2, 3);
        let next = AgentAction::ClustersDown.target_config(&c);
        assert_eq!(next.max_clusters, 2);
        assert!(!AgentAction::ClustersDown.is_applicable(&next));
    }

    #[test]
    fn auto_suspend_ladder_moves_are_adjacent() {
        let c = cfg(); // 300 s
        let up = AgentAction::AutoSuspendUp.target_config(&c);
        assert_eq!(up.auto_suspend_ms, 600_000);
        let down = AgentAction::AutoSuspendDown.target_config(&c);
        assert_eq!(down.auto_suspend_ms, 120_000);
    }

    #[test]
    fn off_ladder_auto_suspend_snaps_down() {
        let mut c = cfg();
        c.auto_suspend_ms = 400_000; // between 300 s and 600 s rungs
        let down = AgentAction::AutoSuspendDown.target_config(&c);
        assert_eq!(down.auto_suspend_ms, 120_000, "snaps below the 300 s rung");
        let up = AgentAction::AutoSuspendUp.target_config(&c);
        assert_eq!(up.auto_suspend_ms, 600_000);
    }

    #[test]
    fn ladder_ends_saturate() {
        let mut c = cfg();
        c.auto_suspend_ms = AUTO_SUSPEND_LADDER_MS[0];
        assert!(!AgentAction::AutoSuspendDown.is_applicable(&c));
        c.auto_suspend_ms = *AUTO_SUSPEND_LADDER_MS.last().unwrap();
        assert!(!AgentAction::AutoSuspendUp.is_applicable(&c));
    }

    #[test]
    fn noop_emits_no_commands() {
        assert!(AgentAction::NoOp.to_commands(&cfg()).is_empty());
        assert_eq!(AgentAction::NoOp.target_config(&cfg()), cfg());
    }

    #[test]
    fn suspend_now_is_a_single_suspend_command() {
        assert_eq!(
            AgentAction::SuspendNow.to_commands(&cfg()),
            vec![WarehouseCommand::Suspend]
        );
    }

    /// What the tick relies on: applying an action's commands yields its
    /// target config, and it emits commands exactly when that differs.
    #[test]
    fn to_commands_reach_the_target_config() {
        let mut grid = Vec::new();
        for size in WarehouseSize::ALL {
            for (min, max) in [(1, 1), (1, 3), (3, 3), (1, 10)] {
                // Every rung, and one value off the ladder.
                for ms in AUTO_SUSPEND_LADDER_MS.into_iter().chain([400_000]) {
                    let mut c = WarehouseConfig::new(size).with_clusters(min, max);
                    c.auto_suspend_ms = ms;
                    grid.push(c);
                }
            }
        }
        for (a, c) in AgentAction::ALL
            .into_iter()
            .flat_map(|a| grid.iter().map(move |c| (a, c)))
        {
            let (cmds, target) = (a.to_commands(c), a.target_config(c));
            assert_eq!(c.after(&cmds), target, "{a:?} from {c:?}");
            if a != AgentAction::SuspendNow {
                assert_eq!(cmds.is_empty(), target == *c, "{a:?} from {c:?}");
                assert!(cmds.len() <= 1, "{a:?} from {c:?}: {cmds:?}");
            }
        }
    }

    #[test]
    fn target_configs_are_always_valid() {
        let mut c = WarehouseConfig::new(WarehouseSize::XSmall);
        for a in AgentAction::ALL {
            let next = a.target_config(&c);
            assert!(next.validate().is_ok(), "{a:?} produced invalid config");
            c = next;
        }
    }
}
