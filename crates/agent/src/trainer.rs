//! Offline training on (reconstructed) historical workloads.
//!
//! The data-learning platform trains each warehouse's smart model on that
//! warehouse's own history (§4.2, C5). Here that works in three steps:
//!
//! 1. **Reconstruction** — telemetry records are turned back into executable
//!    [`QuerySpec`]s (work inferred from observed execution time and the
//!    learned size-scaling slope, template identity preserved);
//! 2. **Rollout** — episodes replay the workload on the simulator while the
//!    agent acts ε-greedily at a fixed decision cadence (Algorithm 1's
//!    `T_realtime`), accumulating credits and performance signals;
//! 3. **Q-learning** — every interval yields a transition whose reward is
//!    `−credits − λ(slider)·perf_penalty`, pushed into the replay ring
//!    with a training step per decision. Training state lives for one
//!    retrain: the ring, the target network and the Adam moments are built
//!    at the run's first transition and dropped when
//!    [`train_on_workload`] returns, so between retrains the agent is its
//!    online network alone. The ring holds this run's transitions and no
//!    others; the target network starts as a copy of the online one, and
//!    the moments start unsized.

use crate::action::AgentAction;
use crate::constraints::ConstraintSet;
use crate::dqn::{DqnAgent, Transition};
use crate::reward::{action_reward, PerfSignals};
use crate::slider::SliderPosition;
use crate::state::{AgentState, STATE_DIM};
use cdw_sim::{
    Account, ActionSource, QueryRecord, QuerySpec, SimTime, Simulator, WarehouseConfig, HOUR_MS,
    MINUTE_MS,
};
use costmodel::LatencyScaler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use telemetry::{percentile, WindowFeatures};

/// Episode parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpisodeConfig {
    /// Decision cadence (the paper's `T_realtime`, minutes-scale).
    pub decision_interval_ms: SimTime,
    /// Baseline p99 latency (ms) the latency-ratio penalty compares
    /// against; measure it with [`baseline_p99`] under the original config.
    pub baseline_p99_ms: f64,
    /// Extra simulated time after the last arrival so trailing work and
    /// suspends resolve.
    pub tail_ms: SimTime,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        Self {
            decision_interval_ms: 10 * MINUTE_MS,
            baseline_p99_ms: 10_000.0,
            tail_ms: HOUR_MS,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingStats {
    pub episodes: usize,
    pub transitions: usize,
    /// Mean per-interval reward over the first episode.
    pub first_episode_mean_reward: f64,
    /// Mean per-interval reward over the last episode.
    pub last_episode_mean_reward: f64,
    pub final_epsilon: f64,
}

/// Rebuilds executable query specs from telemetry records so history can be
/// replayed for training (telemetry never contains query text — only the
/// hashes and performance metrics used here, per C6).
pub fn reconstruct_specs(records: &[QueryRecord], scaler: &LatencyScaler) -> Vec<QuerySpec> {
    records
        .iter()
        .map(|r| {
            // Invert the latency model: observed exec at size s with slope b
            // maps to X-Small work of exec * 2^(-b * s_index). The slope sign
            // makes this a *multiplication* for typical negative slopes.
            let slope = scaler.slope_for(r.template_hash);
            // Strip the cold-read inflation the observation carried (the
            // record keeps the warm fraction it saw); the simulator will
            // re-apply cache effects from the replayed warehouse's state.
            let cold_factor = 1.0
                + 0.5 * (cdw_sim::exec::COLD_READ_MULTIPLIER - 1.0) * (1.0 - r.cache_warm_fraction);
            let work_xs = (r.execution_ms().max(1) as f64) / cold_factor
                * (-slope * r.size.index() as f64).exp2();
            QuerySpec::builder(r.query_id)
                .text_hash(r.text_hash)
                .template_hash(r.template_hash)
                .work_ms_xs(work_xs)
                .bytes_scanned(r.bytes_scanned)
                // The scaling exponent is the negated learned slope; cache
                // affinity is not observable from metadata, so use the
                // population prior.
                .scale_exponent((-slope).clamp(0.0, 1.5))
                .cache_affinity(0.5)
                .arrival_ms(r.arrival)
                .build()
        })
        .collect()
}

/// Measures the p99 end-to-end latency of the workload under a fixed
/// configuration with no agent actions (the performance baseline the reward
/// compares against).
pub fn baseline_p99(specs: &[QuerySpec], config: &WarehouseConfig) -> f64 {
    let (sim, _) = rollout_static(specs, config);
    let lats: Vec<f64> = sim
        .account()
        .query_records()
        .iter()
        .map(|r| r.total_latency_ms() as f64)
        .collect();
    percentile(&lats, 99.0)
}

/// Runs the workload under a fixed configuration, returning the finished
/// simulator (whose account holds the query records, read in place) and the
/// total credits.
fn rollout_static(specs: &[QuerySpec], config: &WarehouseConfig) -> (Simulator, f64) {
    let mut account = Account::new();
    let wh = account.create_warehouse("TRAIN", config.clone());
    let mut sim = Simulator::new(account);
    for spec in specs {
        sim.submit_query(wh, spec.clone());
    }
    let horizon = specs.iter().map(|s| s.arrival).max().unwrap_or(0) + HOUR_MS;
    sim.run_until(horizon);
    // Accrued (not just ledgered) credits: a warehouse that never suspends
    // has an open billing session whose cost must still count.
    let credits = sim.account().accrued_credits(wh, horizon);
    (sim, credits)
}

/// Trains `agent` by rolling out `episodes` passes over the workload.
/// Returns training statistics; the agent is mutated in place. Its learner
/// (target network, Adam moments, replay ring) lives for this call: a fresh
/// one is built at the first transition, and it is dropped on return.
#[allow(clippy::too_many_arguments)]
pub fn train_on_workload(
    agent: &mut DqnAgent,
    specs: &[QuerySpec],
    base_config: &WarehouseConfig,
    slider: SliderPosition,
    constraints: &ConstraintSet,
    episode_cfg: &EpisodeConfig,
    episodes: usize,
    seed: u64,
) -> TrainingStats {
    agent.drop_learner();
    let mut stats = TrainingStats::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = specs.iter().map(|s| s.arrival).max().unwrap_or(0) + episode_cfg.tail_ms;

    for ep in 0..episodes {
        let mean_reward = run_episode(
            agent,
            specs,
            base_config,
            slider,
            constraints,
            episode_cfg,
            horizon,
            &mut rng,
            &mut stats.transitions,
        );
        if ep == 0 {
            stats.first_episode_mean_reward = mean_reward;
        }
        stats.last_episode_mean_reward = mean_reward;
        stats.episodes += 1;
    }
    stats.final_epsilon = agent.epsilon();
    agent.drop_learner();
    stats
}

#[allow(clippy::too_many_arguments)]
fn run_episode(
    agent: &mut DqnAgent,
    specs: &[QuerySpec],
    base_config: &WarehouseConfig,
    slider: SliderPosition,
    constraints: &ConstraintSet,
    episode_cfg: &EpisodeConfig,
    horizon: SimTime,
    rng: &mut StdRng,
    transitions: &mut usize,
) -> f64 {
    let mut account = Account::new();
    let wh = account.create_warehouse("TRAIN", base_config.clone());
    let mut sim = Simulator::new(account);
    for spec in specs {
        sim.submit_query(wh, spec.clone());
    }

    let interval = episode_cfg.decision_interval_ms;
    // One transition for the whole episode, its rows overwritten in place:
    // `next_state` takes each decision point's features, and after the
    // decision the two rows swap, so they become the next one's `state`.
    let mut transition = Transition {
        state: vec![0.0; STATE_DIM],
        action: 0,
        reward: 0.0,
        next_state: vec![0.0; STATE_DIM],
        next_mask: [true; AgentAction::COUNT],
        terminal: false,
    };
    // The action taken at the previous decision point, awaiting its reward.
    let mut pending: Option<usize> = None;
    let mut prev_credits = 0.0;
    let mut prev_dropped = 0;
    let mut reward_sum = 0.0;
    let mut reward_count = 0usize;

    let mut t = interval;
    while t <= horizon {
        sim.run_until(t);
        let desc = sim.account().describe(wh);
        // Completed in the last interval: `query_records` is in completion
        // order, so those are a suffix of it.
        let completed = sim.account().query_records();
        let earlier = completed.partition_point(|r| r.end + interval <= t);
        let window_records: Vec<&QueryRecord> = completed[earlier..].iter().collect();
        let window = WindowFeatures::compute(&window_records, t - interval, interval);

        let state = AgentState {
            now: t,
            window: window.clone(),
            config: desc.config.clone(),
            queue_depth: desc.queued_queries,
            cache_warm: sim.account().warehouse(wh).cache_warm_fraction(),
            suspended: desc.is_suspended,
            slider,
        };
        let features = state.features();
        transition.next_state.copy_from_slice(&features);
        let mask = constraints.action_mask(&desc.config, t);

        // Reward for the action taken at the previous decision point.
        let credits_now = sim.account().accrued_credits(wh, t);
        let dropped_now = sim.account().warehouse(wh).dropped_queries();
        if let Some(prev_action) = pending.take() {
            let p99 = if window.p99_latency_ms > 0.0 {
                window.p99_latency_ms
            } else {
                episode_cfg.baseline_p99_ms
            };
            let perf = PerfSignals {
                mean_queue_s: window.mean_queue_ms / 1000.0,
                latency_ratio: p99 / episode_cfg.baseline_p99_ms.max(1.0),
                dropped_queries: dropped_now - prev_dropped,
            };
            let reward = action_reward(prev_action, credits_now - prev_credits, &perf, slider);
            reward_sum += reward;
            reward_count += 1;
            transition.action = prev_action;
            transition.reward = reward;
            transition.next_mask = mask;
            transition.terminal = t + interval > horizon;
            agent.observe(&transition);
            *transitions += 1;
            agent.train_step(rng);
        }
        prev_credits = credits_now;
        prev_dropped = dropped_now;

        let action = agent.select_action(&features, &mask, rng, true);
        for cmd in action.to_commands(&desc.config) {
            match sim.alter_warehouse(wh, cmd, ActionSource::Keebo) {
                #[expect(
                    clippy::panic,
                    reason = "training harness fail-fast; silent actuation loss corrupts rewards"
                )]
                Err(e) if !e.is_benign() => panic!("actuation failed during training: {e}"),
                _ => {}
            }
        }
        std::mem::swap(&mut transition.state, &mut transition.next_state);
        pending = Some(action.index());
        t += interval;
    }

    if reward_count == 0 {
        0.0
    } else {
        reward_sum / reward_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dqn::DqnConfig;
    use cdw_sim::WarehouseSize;

    fn sparse_specs() -> Vec<QuerySpec> {
        // A few queries per hour over 12 hours — lots of idle time, so the
        // cost-optimal policy suspends aggressively.
        (0..12u64)
            .map(|h| {
                QuerySpec::builder(h)
                    .work_ms_xs(30_000.0)
                    .cache_affinity(0.2)
                    .arrival_ms(h * HOUR_MS + 5 * MINUTE_MS)
                    .build()
            })
            .collect()
    }

    fn big_idle_config() -> WarehouseConfig {
        WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600)
    }

    #[test]
    fn reconstruction_round_trips_work_under_default_slope() {
        let rec = QueryRecord {
            query_id: 1,
            warehouse: "WH".into(),
            size: WarehouseSize::Medium,
            cluster_count: 1,
            text_hash: 5,
            template_hash: 9,
            arrival: 100,
            start: 100,
            end: 100 + 4_000,
            bytes_scanned: 77,
            cache_warm_fraction: 1.0,
        };
        let specs = reconstruct_specs(&[rec], &LatencyScaler::default());
        assert_eq!(specs.len(), 1);
        let s = &specs[0];
        // Default slope -1: 4 s on Medium (index 2) -> 16 s of X-Small work.
        assert!((s.work_ms_xs - 16_000.0).abs() < 1.0, "{}", s.work_ms_xs);
        assert_eq!(s.template_hash, 9);
        assert_eq!(s.arrival, 100);
        assert_eq!(s.scale_exponent, 1.0);
    }

    #[test]
    fn baseline_p99_is_positive_for_nonempty_workload() {
        let p99 = baseline_p99(&sparse_specs(), &big_idle_config());
        assert!(p99 > 0.0);
    }

    #[test]
    fn rollout_static_executes_every_query() {
        let specs = sparse_specs();
        let (sim, credits) = rollout_static(&specs, &big_idle_config());
        assert_eq!(sim.account().query_records().len(), specs.len());
        assert!(credits > 0.0);
    }

    #[test]
    fn training_runs_and_accumulates_transitions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = DqnAgent::new(
            DqnConfig {
                batch_size: 8,
                epsilon_decay_steps: 50,
                ..DqnConfig::default()
            },
            &mut rng,
        );
        let specs = sparse_specs();
        let cfg = big_idle_config();
        let ep_cfg = EpisodeConfig {
            decision_interval_ms: 30 * MINUTE_MS,
            baseline_p99_ms: baseline_p99(&specs, &cfg).max(1.0),
            tail_ms: HOUR_MS,
        };
        let stats = train_on_workload(
            &mut agent,
            &specs,
            &cfg,
            SliderPosition::Balanced,
            &ConstraintSet::new(),
            &ep_cfg,
            3,
            7,
        );
        assert_eq!(stats.episodes, 3);
        assert!(stats.transitions > 50, "transitions {}", stats.transitions);
        assert!(agent.train_steps() > 0);
        assert!(agent.learner().is_none(), "the learner lives for one run");
        assert!(stats.final_epsilon < 1.0);
    }

    /// An episode of 433 decision points stores its 432 transitions in the
    /// replay ring, each once. The episode runs outside `train_on_workload`,
    /// which would drop the learner and its ring on return.
    #[test]
    fn an_episode_stores_each_state_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = DqnConfig {
            batch_size: 8,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, &mut rng);
        let specs = sparse_specs();
        // 433 decision points at the default ten-minute cadence: three days
        // of transitions.
        let ep_cfg = EpisodeConfig::default();
        let horizon = 433 * ep_cfg.decision_interval_ms;
        let mut transitions = 0;
        run_episode(
            &mut agent,
            &specs,
            &big_idle_config(),
            SliderPosition::Balanced,
            &ConstraintSet::new(),
            &ep_cfg,
            horizon,
            &mut StdRng::seed_from_u64(5),
            &mut transitions,
        );
        assert_eq!((transitions, agent.replay_len()), (432, 432));
    }

    #[test]
    fn trained_agent_beats_static_on_idle_heavy_workload() {
        // The economics here are stark: a Large warehouse with 1 h
        // auto-suspend burns ~8 credits/h around the clock for 6 minutes of
        // work per hour. Nearly any learned movement toward smaller sizes or
        // shorter suspends wins; the test asserts the *direction*, not a
        // specific magnitude.
        let specs = sparse_specs();
        let cfg = big_idle_config();
        let (_, static_credits) = rollout_static(&specs, &cfg);

        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = DqnAgent::new(
            DqnConfig {
                batch_size: 16,
                epsilon_decay_steps: 300,
                ..DqnConfig::default()
            },
            &mut rng,
        );
        let ep_cfg = EpisodeConfig {
            decision_interval_ms: 30 * MINUTE_MS,
            baseline_p99_ms: baseline_p99(&specs, &cfg).max(1.0),
            tail_ms: HOUR_MS,
        };
        train_on_workload(
            &mut agent,
            &specs,
            &cfg,
            SliderPosition::LowestCost,
            &ConstraintSet::new(),
            &ep_cfg,
            8,
            2,
        );

        // Greedy evaluation episode.
        let mut account = Account::new();
        let wh = account.create_warehouse("EVAL", cfg.clone());
        let mut sim = Simulator::new(account);
        for s in &specs {
            sim.submit_query(wh, s.clone());
        }
        let horizon = 13 * HOUR_MS;
        let mut t = 30 * MINUTE_MS;
        while t <= horizon {
            sim.run_until(t);
            let desc = sim.account().describe(wh);
            let state = AgentState {
                now: t,
                window: WindowFeatures::empty(t - 30 * MINUTE_MS, 30 * MINUTE_MS),
                config: desc.config.clone(),
                queue_depth: desc.queued_queries,
                cache_warm: sim.account().warehouse(wh).cache_warm_fraction(),
                suspended: desc.is_suspended,
                slider: SliderPosition::LowestCost,
            };
            let mask = ConstraintSet::new().action_mask(&desc.config, t);
            let action = agent.greedy_action(&state.to_vec(), &mask);
            for cmd in action.to_commands(&desc.config) {
                let _ = sim.alter_warehouse(wh, cmd, ActionSource::Keebo);
            }
            t += 30 * MINUTE_MS;
        }
        sim.run_until(horizon);
        let agent_credits = sim.account().accrued_credits(wh, horizon);
        assert!(
            agent_credits < static_credits,
            "trained agent ({agent_credits:.2}) should beat static ({static_credits:.2})"
        );
    }
}
