//! The decision ring: what each control tick decided, as plain data.
//!
//! A tick pushes one `Copy` [`Record`] and the [`MaskCause`]s of its mask;
//! nothing is formatted and, once the two deques have grown, nothing is
//! allocated. Strings exist only in [`DecisionRing::render`], which turns
//! the ring into the export schema (`keebo_obs::DecisionTrace`) for whoever
//! asks. The ring is bounded: once full, the oldest record leaves with
//! exactly the causes it brought (and is counted).

use crate::actuator::Reason;
use crate::health::HealthState;
use agent::{AgentAction, Rule};
use cdw_sim::{SimTime, WarehouseSize, HOUR_MS};
use keebo_obs::{DecisionEvent, DecisionTrace, MaskEntry, TraceFeatures};
use std::collections::VecDeque;

/// The controller's own reasons to take an action off the table (the
/// customer's are [`Cause::Rule`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Guard {
    /// Auto-suspend belongs to the analytic optimizer, not the policy.
    OwnerAutoSuspend,
    /// Stale telemetry: capacity may be added, never removed.
    StaleTelemetry,
    /// C4: behind on performance, nothing that removes capacity.
    PerfUnhealthy,
    /// No observed work to show a smaller size would do.
    NoLoadEvidence,
    /// The slider's tolerated p99 inflation allows no further step down.
    SliderFloor,
    /// Performance is fine: nothing beyond the customer's own capacity.
    CostGuardrail,
}

impl Guard {
    pub(super) fn as_str(self) -> &'static str {
        match self {
            Guard::OwnerAutoSuspend => "owner:auto-suspend-optimizer",
            Guard::StaleTelemetry => "health:stale-telemetry",
            Guard::PerfUnhealthy => "C4:perf-unhealthy",
            Guard::NoLoadEvidence => "no-load-evidence",
            Guard::SliderFloor => "slider-floor",
            Guard::CostGuardrail => "cost-guardrail",
        }
    }
}

/// Why one action is off the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Cause {
    /// The action does nothing from the current configuration.
    Inapplicable,
    /// A customer rule, by its position in the optimizer's `ConstraintSet`.
    /// Rules are only ever appended, so the position names the same rule
    /// whenever the ring is read.
    Rule(u32),
    Guard(Guard),
}

/// One cause of one masked action. An action masked by several rules has
/// several, in rule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct MaskCause {
    pub(super) action: AgentAction,
    pub(super) cause: Cause,
}

/// What the tick did — the only two shapes it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Chosen {
    Action(AgentAction),
    /// A back-off rollback to a configuration of this size.
    Rollback(WarehouseSize),
}

/// One control tick, as the tick computed it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Record {
    pub(super) t_ms: SimTime,
    pub(super) health: HealthState,
    pub(super) size: WarehouseSize,
    pub(super) min_clusters: u32,
    pub(super) max_clusters: u32,
    pub(super) auto_suspend_ms: SimTime,
    pub(super) features: TraceFeatures,
    /// `None` on ticks that never reached masking (paused, frozen,
    /// mid-repair, external change).
    pub(super) mask: Option<[bool; AgentAction::COUNT]>,
    pub(super) chosen: Chosen,
    pub(super) reason: Reason,
    pub(super) reward: Option<f64>,
}

/// Bounded ring of [`Record`]s, their causes in one deque beside them (the
/// oldest record's at its front). A capacity of 0 records nothing.
#[derive(Debug)]
pub(super) struct DecisionRing {
    capacity: usize,
    /// Each record with how many of `causes` are its own.
    records: VecDeque<(Record, usize)>,
    causes: VecDeque<MaskCause>,
    dropped: u64,
}

impl DecisionRing {
    pub(super) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            records: VecDeque::new(),
            causes: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.records.len()
    }

    /// Appends a tick, evicting the oldest (and its causes) when full.
    pub(super) fn push(&mut self, record: Record, causes: &[MaskCause]) {
        if self.capacity == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            if let Some((_, own)) = self.records.pop_front() {
                self.causes.drain(..own);
            }
            self.dropped += 1;
        }
        self.records.push_back((record, causes.len()));
        self.causes.extend(causes);
    }

    /// The ring as the export schema, oldest first. `rules` is the set the
    /// recorded [`Cause::Rule`] positions index.
    pub(super) fn render(&self, warehouse: &str, rules: &[Rule]) -> DecisionTrace {
        let mut next = 0;
        let events = self.records.iter().map(|(record, own)| {
            let causes = self.causes.range(next..next + own);
            next += own;
            render(record, causes, warehouse, rules)
        });
        DecisionTrace::new(events.collect(), self.dropped)
    }
}

/// One record as the export schema spells it. Non-finite features export as
/// 0 (JSON has no NaN/Inf literal).
fn render<'a>(
    record: &Record,
    causes: impl Iterator<Item = &'a MaskCause> + Clone,
    warehouse: &str,
    rules: &[Rule],
) -> DecisionEvent {
    let reasons_of = |action: AgentAction| {
        let own = causes.clone().filter(move |c| c.action == action);
        own.map(|c| match c.cause {
            Cause::Inapplicable => "inapplicable".to_string(),
            Cause::Rule(i) => format!("constraint:{}", rules[i as usize].name),
            Cause::Guard(g) => g.as_str().to_string(),
        })
    };
    let entry = |action: AgentAction, allowed: bool| MaskEntry {
        action: format!("{action:?}"),
        allowed,
        reasons: reasons_of(action).collect(),
    };
    let mask = record.mask.iter().flatten();
    DecisionEvent {
        t_ms: record.t_ms,
        hour: record.t_ms / HOUR_MS,
        warehouse: warehouse.to_string(),
        health: record.health.to_string(),
        size: format!("{:?}", record.size),
        min_clusters: record.min_clusters,
        max_clusters: record.max_clusters,
        auto_suspend_ms: record.auto_suspend_ms,
        features: record.features.sanitized(),
        mask: (AgentAction::ALL.into_iter().zip(mask))
            .map(|(action, &allowed)| entry(action, allowed))
            .collect(),
        chosen: match record.chosen {
            Chosen::Action(action) => format!("{action:?}"),
            Chosen::Rollback(size) => format!("Rollback(to {size:?})"),
        },
        reason: record.reason.as_str().to_string(),
        reward: record.reward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agent::{RuleEffect, TimeWindow};

    fn record(t_ms: SimTime) -> Record {
        Record {
            t_ms,
            health: HealthState::Healthy,
            size: WarehouseSize::Small,
            min_clusters: 1,
            max_clusters: 3,
            auto_suspend_ms: 600_000,
            features: TraceFeatures {
                mean_latency_ms: 850.0,
                queue_depth: 2,
                ..TraceFeatures::default()
            },
            mask: Some([true; AgentAction::COUNT]),
            chosen: Chosen::Action(AgentAction::NoOp),
            reason: Reason::Policy,
            reward: Some(0.42),
        }
    }

    fn rule(name: &str) -> Rule {
        Rule::new(name, TimeWindow::always(), RuleEffect::NoDownsize)
    }

    /// Record `i` of the eviction test: `i % 6` causes, spread over the
    /// masked actions so that some actions carry several.
    fn tick(i: usize) -> (Record, Vec<MaskCause>) {
        let kinds = [
            Cause::Inapplicable,
            Cause::Rule(0),
            Cause::Rule(1),
            Cause::Guard(Guard::SliderFloor),
            Cause::Guard(Guard::CostGuardrail),
        ];
        let causes: Vec<MaskCause> = (0..i % 6)
            .map(|k| MaskCause {
                action: AgentAction::ALL[1 + (i + k) % 3],
                cause: kinds[(i + k) % kinds.len()],
            })
            .collect();
        let mut mask = [true; AgentAction::COUNT];
        for c in &causes {
            mask[c.action.index()] = false;
        }
        let r = Record {
            mask: Some(mask),
            ..record(i as SimTime * HOUR_MS)
        };
        (r, causes)
    }

    #[test]
    fn a_full_ring_evicts_the_oldest_with_exactly_its_causes() {
        let rules = [rule("keep-big"), rule("floor")];
        let mut ring = DecisionRing::new(3);
        for i in 0..10 {
            let (r, causes) = tick(i);
            ring.push(r, &causes);
        }
        let trace = ring.render("WH", &rules);
        assert_eq!((ring.len(), trace.len(), trace.dropped()), (3, 3, 7));
        // What is left renders as it would alone in a ring of its own.
        for (event, i) in trace.events().zip(7..10) {
            let (r, causes) = tick(i);
            assert!(causes.len() == i % 6 && event.t_ms == r.t_ms);
            let mut alone = DecisionRing::new(1);
            alone.push(r, &causes);
            assert_eq!(Some(event), alone.render("WH", &rules).events().next());
            let reasons: usize = event.mask.iter().map(|m| m.reasons.len()).sum();
            assert_eq!(reasons, causes.len());
            for m in &event.mask {
                assert_eq!(m.allowed, m.reasons.is_empty(), "{m:?}");
            }
        }
        assert_eq!(ring.causes.len(), (7..10).map(|i| i % 6).sum::<usize>());
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut ring = DecisionRing::new(0);
        let (r, causes) = tick(5);
        ring.push(r, &causes);
        let trace = ring.render("WH", &[]);
        assert!(trace.is_empty() && ring.len() == 0 && ring.causes.is_empty());
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.to_jsonl(), "");
    }

    #[test]
    fn a_record_renders_every_field_of_the_export_schema() {
        let rules = [rule("keep-big"), rule("floor")];
        let masked = |action, cause| MaskCause { action, cause };
        let causes = [
            masked(AgentAction::SizeDown, Cause::Inapplicable),
            masked(AgentAction::SizeDown, Cause::Rule(0)),
            masked(AgentAction::SizeUp, Cause::Guard(Guard::CostGuardrail)),
            masked(AgentAction::SizeDown, Cause::Rule(1)),
        ];
        let mut mask = [true; AgentAction::COUNT];
        mask[AgentAction::SizeDown.index()] = false;
        mask[AgentAction::SizeUp.index()] = false;
        let policy = Record {
            mask: Some(mask),
            features: TraceFeatures {
                latency_ratio: f64::NAN,
                load_zscore: f64::NEG_INFINITY,
                ..record(0).features
            },
            ..record(5 * HOUR_MS + 1)
        };
        let held = Record {
            health: HealthState::Frozen,
            mask: None,
            chosen: Chosen::Rollback(WarehouseSize::Large),
            reason: Reason::Frozen,
            reward: None,
            ..record(6 * HOUR_MS)
        };
        let mut ring = DecisionRing::new(8);
        ring.push(policy, &causes);
        ring.push(held, &[]);
        let trace = ring.render("WH_A", &rules);
        let events: Vec<&DecisionEvent> = trace.events().collect();

        let e = events[0];
        assert_eq!((e.t_ms, e.hour), (5 * HOUR_MS + 1, 5));
        assert_eq!(
            (e.warehouse.as_str(), e.health.as_str()),
            ("WH_A", "healthy")
        );
        assert_eq!(
            (e.size.as_str(), e.min_clusters, e.max_clusters),
            ("Small", 1, 3)
        );
        assert_eq!(e.auto_suspend_ms, 600_000);
        // Non-finite features export as 0; the rest are copied.
        assert_eq!(
            (e.features.latency_ratio, e.features.load_zscore),
            (0.0, 0.0)
        );
        assert_eq!(
            (e.features.mean_latency_ms, e.features.queue_depth),
            (850.0, 2)
        );
        let names: Vec<&str> = e.mask.iter().map(|m| m.action.as_str()).collect();
        let all = AgentAction::ALL.map(|a| format!("{a:?}"));
        assert_eq!(names, all.iter().map(String::as_str).collect::<Vec<_>>());
        let size_down = &e.mask[AgentAction::SizeDown.index()];
        assert!(!size_down.allowed);
        assert_eq!(
            size_down.reasons,
            ["inapplicable", "constraint:keep-big", "constraint:floor"]
        );
        assert_eq!(
            e.mask[AgentAction::SizeUp.index()].reasons,
            ["cost-guardrail"]
        );
        let allowed = e.mask.iter().filter(|m| m.allowed);
        assert!(allowed.clone().count() == 6 && allowed.into_iter().all(|m| m.reasons.is_empty()));
        assert_eq!((e.chosen.as_str(), e.reason.as_str()), ("NoOp", "policy"));
        assert_eq!(e.reward, Some(0.42));

        let e = events[1];
        assert!(e.mask.is_empty(), "a gated tick has no mask");
        assert_eq!((e.health.as_str(), e.reason.as_str()), ("frozen", "frozen"));
        assert_eq!((e.chosen.as_str(), e.reward), ("Rollback(to Large)", None));
        let parsed = DecisionTrace::parse_jsonl(&trace.to_jsonl()).expect("the export parses");
        assert_eq!(parsed, [events[0].clone(), events[1].clone()]);
    }

    #[test]
    fn a_traced_tick_stays_within_its_resident_budget() {
        // Five causes is the common healthy tick: two owner masks, two
        // cost guardrails and a slider floor.
        let per_tick =
            std::mem::size_of::<(Record, usize)>() + 5 * std::mem::size_of::<MaskCause>();
        assert!(per_tick <= 256, "{per_tick} bytes a traced tick");
    }
}
