//! Customer constraints (§4.1 "Constraints", §4.3).
//!
//! "In each rule, the customers can disallow or allow certain optimizations
//! or enforce certain resources during certain hours of the day or days of
//! the week for each warehouse." Constraints are *hard*: "the smart model
//! never takes actions that violate the customer constraints ...
//! non-compliant actions are cancelled and replaced with the next best
//! action that complies".

use crate::action::AgentAction;
use cdw_sim::{SimTime, WarehouseConfig, WarehouseSize};
use serde::{Deserialize, Serialize};

/// A recurring weekly time window: days of week (sim weekday 0–6) and an
/// hour range `[start_hour, end_hour)`. `days = None` means every day.
/// Windows may wrap midnight (`start_hour > end_hour`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeWindow {
    pub days: Option<Vec<u8>>,
    pub start_hour: f64,
    pub end_hour: f64,
}

impl TimeWindow {
    /// A window covering all of every day.
    pub fn always() -> Self {
        Self {
            days: None,
            start_hour: 0.0,
            end_hour: 24.0,
        }
    }

    /// A daily window `[start_hour, end_hour)`.
    pub fn daily(start_hour: f64, end_hour: f64) -> Self {
        Self {
            days: None,
            start_hour,
            end_hour,
        }
    }

    /// Restricts the window to specific sim weekdays (0–6).
    pub fn on_days(mut self, days: Vec<u8>) -> Self {
        self.days = Some(days);
        self
    }

    /// True when `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        if let Some(days) = &self.days {
            if !days.contains(&cdw_sim::time::day_of_week(t)) {
                return false;
            }
        }
        let h = cdw_sim::time::hour_of_day(t);
        if self.start_hour <= self.end_hour {
            (self.start_hour..self.end_hour).contains(&h)
        } else {
            // Wraps midnight.
            h >= self.start_hour || h < self.end_hour
        }
    }
}

/// What a rule enforces while its window is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RuleEffect {
    /// The warehouse may not be smaller than this size.
    MinSize(WarehouseSize),
    /// The warehouse may not be larger than this size.
    MaxSize(WarehouseSize),
    /// No resize below the *current* size (the paper's "cannot be downsized
    /// even if underutilized").
    NoDownsize,
    /// No suspension (neither SuspendNow nor shortening auto-suspend below
    /// the given floor).
    NoSuspend,
    /// At least this many clusters must be allowed.
    MinClusters(u32),
    /// At most this many clusters may be allowed.
    MaxClusters(u32),
    /// Auto-suspend may not drop below this many milliseconds.
    MinAutoSuspendMs(SimTime),
}

/// One named rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    pub name: String,
    pub window: TimeWindow,
    pub effect: RuleEffect,
}

impl Rule {
    pub fn new(name: impl Into<String>, window: TimeWindow, effect: RuleEffect) -> Self {
        Self {
            name: name.into(),
            window,
            effect,
        }
    }

    /// Why the rule cannot bind as its window reads, if it cannot: an hour
    /// outside `[0, 24]` (NaN included, which [`TimeWindow::contains`] would
    /// take for a midnight wrap), a weekday above 6, or an empty day list.
    /// Rules come from outside the program, so the orchestrator refuses
    /// these rather than apply them.
    pub fn validate(&self) -> Result<(), String> {
        let TimeWindow {
            days,
            start_hour,
            end_hour,
        } = &self.window;
        let problem = if ![start_hour, end_hour]
            .iter()
            .all(|h| (0.0..=24.0).contains(*h))
        {
            format!("hours {start_hour}..{end_hour} are not within [0, 24]")
        } else if days.as_ref().is_some_and(Vec::is_empty) {
            "its day list is empty".to_string()
        } else if let Some(day) = days.iter().flatten().find(|&&d| d > 6) {
            format!("weekday {day} is above 6")
        } else {
            return Ok(());
        };
        Err(format!("rule `{}`: {problem}", self.name))
    }

    /// Does the configuration this action would produce comply with the
    /// rule at time `t`?
    fn allows(&self, action: AgentAction, current: &WarehouseConfig, t: SimTime) -> bool {
        if !self.window.contains(t) {
            return true;
        }
        let next = action.target_config(current);
        match &self.effect {
            RuleEffect::MinSize(min) => next.size >= *min,
            RuleEffect::MaxSize(max) => next.size <= *max,
            RuleEffect::NoDownsize => next.size >= current.size,
            RuleEffect::NoSuspend => {
                action != AgentAction::SuspendNow && next.auto_suspend_ms >= current.auto_suspend_ms
            }
            RuleEffect::MinClusters(min) => next.max_clusters >= *min,
            RuleEffect::MaxClusters(max) => next.max_clusters <= *max,
            RuleEffect::MinAutoSuspendMs(floor) => next.auto_suspend_ms >= *floor,
        }
    }
}

/// All rules for one warehouse.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    rules: Vec<Rule>,
}

impl ConstraintSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    pub fn add(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// True when `action` from `current` complies with every rule at `t`.
    pub fn allows(&self, action: AgentAction, current: &WarehouseConfig, t: SimTime) -> bool {
        self.rules.iter().all(|r| r.allows(action, current, t))
    }

    /// Action mask aligned with [`AgentAction::ALL`]: compliant *and*
    /// applicable actions only. `NoOp` is always allowed so the mask is
    /// never empty (the paper's "next best action that complies" always
    /// exists).
    pub fn action_mask(&self, current: &WarehouseConfig, t: SimTime) -> [bool; AgentAction::COUNT] {
        let mut mask = [false; AgentAction::COUNT];
        for (i, a) in AgentAction::ALL.iter().enumerate() {
            mask[i] = *a == AgentAction::NoOp
                || (a.is_applicable(current) && self.allows(*a, current, t));
        }
        mask
    }

    /// Positions in [`ConstraintSet::rules`] of the rules the action would
    /// violate at `t`. Rules are only ever appended, so a position names the
    /// same rule for as long as the set lives.
    pub fn violation_indices<'a>(
        &'a self,
        action: AgentAction,
        current: &'a WarehouseConfig,
        t: SimTime,
    ) -> impl Iterator<Item = usize> + 'a {
        let rules = self.rules.iter().enumerate();
        rules.filter_map(move |(i, r)| (!r.allows(action, current, t)).then_some(i))
    }

    /// Names of rules the action would violate at `t` (for action logs).
    pub fn violations(
        &self,
        action: AgentAction,
        current: &WarehouseConfig,
        t: SimTime,
    ) -> Vec<&str> {
        self.violation_indices(action, current, t)
            .map(|i| self.rules[i].name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::HOUR_MS;

    fn cfg(size: WarehouseSize) -> WarehouseConfig {
        WarehouseConfig::new(size)
            .with_auto_suspend_secs(300)
            .with_clusters(1, 3)
    }

    #[test]
    fn window_contains_basics() {
        let w = TimeWindow::daily(9.0, 9.5);
        assert!(w.contains(9 * HOUR_MS));
        assert!(w.contains(9 * HOUR_MS + 20 * 60_000));
        assert!(!w.contains(10 * HOUR_MS));
        assert!(!w.contains(8 * HOUR_MS));
    }

    #[test]
    fn window_wraps_midnight() {
        let w = TimeWindow::daily(22.0, 2.0);
        assert!(w.contains(23 * HOUR_MS));
        assert!(w.contains(HOUR_MS));
        assert!(!w.contains(12 * HOUR_MS));
    }

    #[test]
    fn rules_that_cannot_bind_as_written_are_invalid() {
        let rule = |window| Rule::new("r", window, RuleEffect::NoSuspend);
        for bad in [
            TimeWindow::daily(f64::NAN, 6.0),
            TimeWindow::daily(22.0, f64::NAN),
            TimeWindow::daily(9.0, 25.0),
            TimeWindow::daily(-1.0, 6.0),
            TimeWindow::always().on_days(vec![7]),
            TimeWindow::always().on_days(vec![]),
        ] {
            assert!(rule(bad.clone()).validate().is_err(), "{bad:?}");
        }
        for good in [
            TimeWindow::daily(22.0, 6.0),
            TimeWindow::always(),
            TimeWindow::daily(0.0, 24.0).on_days(vec![0, 6]),
        ] {
            assert_eq!(rule(good.clone()).validate(), Ok(()), "{good:?}");
        }
    }

    #[test]
    fn window_day_filter() {
        let w = TimeWindow::daily(0.0, 24.0).on_days(vec![0]); // sim-Mondays
        assert!(w.contains(HOUR_MS)); // day 0
        assert!(!w.contains(24 * HOUR_MS + HOUR_MS)); // day 1
        assert!(w.contains(7 * 24 * HOUR_MS)); // day 7 = weekday 0 again
    }

    #[test]
    fn no_downsize_rule_blocks_size_down_in_window() {
        // The paper's example: 9:00–9:30 the BI warehouse must not downsize.
        let cs = ConstraintSet::new().with_rule(Rule::new(
            "protect-morning-bi",
            TimeWindow::daily(9.0, 9.5),
            RuleEffect::NoDownsize,
        ));
        let c = cfg(WarehouseSize::Large);
        let in_window = 9 * HOUR_MS + 60_000;
        let outside = 11 * HOUR_MS;
        assert!(!cs.allows(AgentAction::SizeDown, &c, in_window));
        assert!(cs.allows(AgentAction::SizeUp, &c, in_window));
        assert!(cs.allows(AgentAction::SizeDown, &c, outside));
    }

    #[test]
    fn min_size_rule_enforces_floor() {
        let cs = ConstraintSet::new().with_rule(Rule::new(
            "xl-mornings",
            TimeWindow::daily(9.0, 9.5),
            RuleEffect::MinSize(WarehouseSize::XLarge),
        ));
        let c = cfg(WarehouseSize::XLarge);
        assert!(!cs.allows(AgentAction::SizeDown, &c, 9 * HOUR_MS));
        // Even NoOp passes: the rule constrains *changes*, and current
        // already complies.
        assert!(cs.allows(AgentAction::NoOp, &c, 9 * HOUR_MS));
    }

    #[test]
    fn no_suspend_blocks_suspend_and_shorter_auto_suspend() {
        let cs = ConstraintSet::new().with_rule(Rule::new(
            "no-suspend",
            TimeWindow::always(),
            RuleEffect::NoSuspend,
        ));
        let c = cfg(WarehouseSize::Small);
        assert!(!cs.allows(AgentAction::SuspendNow, &c, 0));
        assert!(!cs.allows(AgentAction::AutoSuspendDown, &c, 0));
        assert!(cs.allows(AgentAction::AutoSuspendUp, &c, 0));
    }

    #[test]
    fn min_clusters_rule() {
        // The paper's example: minimum of 3 clusters in the window.
        let cs = ConstraintSet::new().with_rule(Rule::new(
            "morning-parallelism",
            TimeWindow::daily(9.0, 9.5),
            RuleEffect::MinClusters(3),
        ));
        let c = cfg(WarehouseSize::Small); // max_clusters = 3
        assert!(!cs.allows(AgentAction::ClustersDown, &c, 9 * HOUR_MS));
        assert!(cs.allows(AgentAction::ClustersDown, &c, 12 * HOUR_MS));
    }

    #[test]
    fn mask_always_permits_noop() {
        let cs = ConstraintSet::new()
            .with_rule(Rule::new("a", TimeWindow::always(), RuleEffect::NoDownsize))
            .with_rule(Rule::new("b", TimeWindow::always(), RuleEffect::NoSuspend))
            .with_rule(Rule::new(
                "c",
                TimeWindow::always(),
                RuleEffect::MaxSize(WarehouseSize::XSmall),
            ))
            .with_rule(Rule::new(
                "d",
                TimeWindow::always(),
                RuleEffect::MaxClusters(1),
            ));
        let c = WarehouseConfig::new(WarehouseSize::XSmall);
        let mask = cs.action_mask(&c, 0);
        assert!(mask[AgentAction::NoOp.index()]);
        assert!(!mask[AgentAction::SizeUp.index()]);
        assert!(!mask[AgentAction::SuspendNow.index()]);
        assert!(mask.iter().any(|&m| m));
    }

    #[test]
    fn mask_excludes_inapplicable_actions() {
        let cs = ConstraintSet::new();
        let c = WarehouseConfig::new(WarehouseSize::XSmall); // can't size down
        let mask = cs.action_mask(&c, 0);
        assert!(!mask[AgentAction::SizeDown.index()]);
        assert!(mask[AgentAction::SizeUp.index()]);
    }

    #[test]
    fn violations_name_the_offending_rules() {
        let cs = ConstraintSet::new()
            .with_rule(Rule::new(
                "keep-big",
                TimeWindow::always(),
                RuleEffect::NoDownsize,
            ))
            .with_rule(Rule::new(
                "floor",
                TimeWindow::always(),
                RuleEffect::MinSize(WarehouseSize::Medium),
            ));
        let c = cfg(WarehouseSize::Medium);
        let v = cs.violations(AgentAction::SizeDown, &c, 0);
        assert_eq!(v, vec!["keep-big", "floor"]);
        assert!(cs.violations(AgentAction::SizeUp, &c, 0).is_empty());
    }

    #[test]
    fn empty_set_allows_everything_applicable() {
        let cs = ConstraintSet::new();
        let c = cfg(WarehouseSize::Medium);
        for a in AgentAction::ALL {
            assert!(cs.allows(a, &c, 0));
        }
    }
}
