//! Deep Q-network policy with target network and experience replay —
//! the paper's "detailed architecture for incorporating real-time
//! performance feedback using deep reinforcement learning" (§6).
//!
//! Between retrains an agent is its online network, its config and two
//! counters: the serving path reads nothing else, and a snapshot carries
//! nothing else. What only training reads — the target network, the Adam
//! moments and the replay ring, whose entries cache their bootstraps — is one
//! [`Learner`], built at the first `observe` of a retrain and dropped when
//! [`crate::train_on_workload`] returns.

use crate::action::AgentAction;
use crate::replay::ReplayRing;
use crate::state::STATE_DIM;
use nn::le::{self, Reader};
use nn::{huber_loss_grad_into, Adam, ForwardTrace, Mlp, MlpConfig, MlpGradients};
use rand::Rng;
use std::borrow::Borrow;
use std::cell::RefCell;

/// Hyper-parameters of the DQN.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Discount factor.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size per training step.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Hard target-network sync every this many training steps.
    pub target_sync_interval: u64,
    /// ε-greedy schedule: linear decay from start to end over decay_steps
    /// action selections.
    pub epsilon_start: f64,
    pub epsilon_end: f64,
    pub epsilon_decay_steps: u64,
    /// Global-norm gradient clip.
    pub grad_clip: f64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 32],
            gamma: 0.92,
            learning_rate: 1e-3,
            batch_size: 32,
            replay_capacity: 50_000,
            target_sync_interval: 200,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 3_000,
            grad_clip: 5.0,
        }
    }
}

/// One (s, a, r, s') transition with the *next* state's action mask so the
/// bootstrap max never selects a non-compliant action.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    pub state: Vec<f64>,
    pub action: usize,
    pub reward: f64,
    pub next_state: Vec<f64>,
    pub next_mask: [bool; AgentAction::COUNT],
    pub terminal: bool,
}

/// The smart model's Q-learning core.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    online: Mlp,
    /// What one retrain trains with; `None` between retrains.
    learner: Option<Learner>,
    config: DqnConfig,
    selections: u64,
    train_steps: u64,
}

/// The state only training reads, with the lifetime of one
/// `train_on_workload` call: built from the online network at the retrain's
/// first `observe`, dropped on return (`drop_learner`), never persisted. A
/// fresh target is a copy of the online network and fresh moments are
/// unsized, so building one anew is what an agent that has never trained
/// holds.
#[derive(Debug, Clone)]
struct Learner {
    target: Mlp,
    optimizer: Adam,
    /// The transitions the next `train_step` draws from. Each entry caches
    /// `max_a' Q_target(s', a')` under its stored mask, a pure function of
    /// (target parameters, entry), so it is forgotten at exactly three
    /// points: an entry's own when a push writes it, everything when the
    /// target network syncs, and everything with the learner itself. `NaN`
    /// is free to mean "unknown" because [`masked_max`] cannot return it
    /// (`f64::max` drops a `NaN` operand); were one ever stored, it would
    /// only be recomputed at every draw.
    replay: ReplayRing,
}

impl Learner {
    fn new(online: &Mlp, config: &DqnConfig) -> Self {
        Self {
            target: online.clone(),
            optimizer: Adam::new(config.learning_rate, online.optimizer_slots()),
            replay: ReplayRing::new(config.replay_capacity),
        }
    }
}

impl DqnConfig {
    /// Why a learner cannot be built or run from this config, if it cannot.
    /// Both doors an agent comes through, [`DqnAgent::new`] and
    /// [`DqnAgent::from_bytes`], call it; no other code checks these fields.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("batch_size", self.batch_size as u64),
            ("replay buffer capacity", self.replay_capacity as u64),
            ("target_sync_interval", self.target_sync_interval),
        ];
        if let Some((name, _)) = counts.iter().find(|(_, n)| *n == 0) {
            return Err(format!("{name} must be positive"));
        }
        // A `NaN` clip is no clip (`norm > NaN` is false), and a negative
        // one turns every step into gradient ascent.
        let rates = [
            ("learning rate", self.learning_rate),
            ("grad_clip", self.grad_clip),
        ];
        if let Some((name, v)) = rates.iter().find(|(_, v)| v.is_nan() || *v <= 0.0) {
            return Err(format!("{name} must be positive, not {v}"));
        }
        // A `NaN` discount makes every TD target `NaN`, terminal ones too.
        let unit = [
            ("gamma", self.gamma),
            ("epsilon_start", self.epsilon_start),
            ("epsilon_end", self.epsilon_end),
        ];
        if let Some((name, v)) = unit.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
            return Err(format!("{name} must lie in [0, 1], not {v}"));
        }
        Ok(())
    }

    fn write_le(&self, out: &mut Vec<u8>) {
        le::put_usizes(out, &self.hidden);
        le::put_f64(out, self.gamma);
        le::put_f64(out, self.learning_rate);
        le::put_usize(out, self.batch_size);
        le::put_usize(out, self.replay_capacity);
        le::put_u64(out, self.target_sync_interval);
        le::put_f64(out, self.epsilon_start);
        le::put_f64(out, self.epsilon_end);
        le::put_u64(out, self.epsilon_decay_steps);
        le::put_f64(out, self.grad_clip);
    }

    fn read_le(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(Self {
            hidden: r.usizes()?,
            gamma: r.f64()?,
            learning_rate: r.f64()?,
            batch_size: r.usize()?,
            replay_capacity: r.usize()?,
            target_sync_interval: r.u64()?,
            epsilon_start: r.f64()?,
            epsilon_end: r.f64()?,
            epsilon_decay_steps: r.u64()?,
            grad_clip: r.f64()?,
        })
    }
}

impl DqnAgent {
    /// The agent section a snapshot carries (`nn::le`: fixed-width
    /// little-endian fields, every float as its bits): the online network,
    /// the config and the two counters. The learner is not in it: it lives
    /// for one `train_on_workload` call and does not exist between
    /// retrains, when snapshots are taken.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.online.write_le(&mut out);
        self.config.write_le(&mut out);
        le::put_u64(&mut out, self.selections);
        le::put_u64(&mut out, self.train_steps);
        out
    }

    /// The inverse of [`DqnAgent::to_bytes`], total on arbitrary bytes:
    /// `Err` for anything that is not exactly one encoded agent. This is the
    /// door every restored agent comes through, so everything the next
    /// retrain builds its learner from, indexes by and computes with is
    /// checked here, once: the network's shapes, and the config by
    /// [`DqnConfig::validate`]. The agent comes back with no learner.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let online = Mlp::read_le(&mut r)?;
        let config = DqnConfig::read_le(&mut r)?;
        let selections = r.u64()?;
        let train_steps = r.u64()?;
        r.finish()?;

        online
            .validate()
            .map_err(|e| format!("online network: {e}"))?;
        let sizes = online.layer_sizes();
        if (online.input_dim(), online.output_dim()) != (STATE_DIM, AgentAction::COUNT) {
            return Err(format!(
                "online network {sizes:?} is not a {STATE_DIM} -> {} architecture",
                AgentAction::COUNT
            ));
        }
        config.validate()?;
        Ok(Self {
            online,
            learner: None,
            config,
            selections,
            train_steps,
        })
    }
}

/// Everything one `train_step` needs beyond the agent itself.
#[derive(Default)]
struct TrainScratch {
    indices: Vec<usize>,
    /// Drawn entries whose bootstrap is not cached, each once.
    misses: Vec<usize>,
    trace: ForwardTrace,
    targets: Vec<f64>,
    /// dL/dQ of the whole batch, sample-major.
    output_grads: Vec<f64>,
    grads: MlpGradients,
}

thread_local! {
    /// One scratch per worker thread, shaped to whichever agent trains next
    /// (in a fleet they all share one shape, so after the first step nothing
    /// is allocated). Per thread, not per agent: ~90 KB that every managed
    /// warehouse would otherwise keep resident between its ticks.
    static SCRATCH: RefCell<TrainScratch> = RefCell::default();
}

impl DqnAgent {
    /// Builds a fresh agent with seeded initialization.
    ///
    /// # Panics
    /// Panics with [`DqnConfig::validate`]'s message if the config is
    /// invalid, and if a hidden width is zero (`Mlp::new`).
    pub fn new(config: DqnConfig, rng: &mut impl Rng) -> Self {
        #[expect(clippy::panic, reason = "documented panicking constructor")]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid DQN config: {e}"));
        let mut layers = vec![STATE_DIM];
        layers.extend_from_slice(&config.hidden);
        layers.push(AgentAction::COUNT);
        let online = Mlp::new(MlpConfig::new(layers.clone()), rng);
        // The target network's initialization is drawn and discarded: a
        // learner's target starts as a copy of the online network, and the
        // draw keeps every later use of `rng` where it was.
        drop(Mlp::new(MlpConfig::new(layers), rng));
        Self {
            online,
            learner: None,
            config,
            selections: 0,
            train_steps: 0,
        }
    }

    /// Q-values of the online network.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.online.forward(state)
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        let c = &self.config;
        if self.selections >= c.epsilon_decay_steps {
            c.epsilon_end
        } else {
            let frac = self.selections as f64 / c.epsilon_decay_steps as f64;
            c.epsilon_start + (c.epsilon_end - c.epsilon_start) * frac
        }
    }

    /// Transitions stored so far in this retrain (0 between retrains).
    pub fn replay_len(&self) -> usize {
        self.learner.as_ref().map_or(0, |l| l.replay.len())
    }

    /// The target network and the optimizer of the retrain in progress, or
    /// `None` between retrains, when neither exists.
    pub fn learner(&self) -> Option<(&Mlp, &Adam)> {
        self.learner.as_ref().map(|l| (&l.target, &l.optimizer))
    }

    /// Ends a retrain: drops the target network, the Adam moments and the
    /// replay ring.
    pub(crate) fn drop_learner(&mut self) {
        self.learner = None;
    }

    /// Training steps taken.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Greedy (exploit-only) action under the mask.
    ///
    /// # Panics
    /// Panics if the mask permits nothing (the constraint layer always
    /// permits NoOp, so an all-false mask is a programming error).
    pub fn greedy_action(&self, state: &[f64], mask: &[bool; AgentAction::COUNT]) -> AgentAction {
        assert_eq!(state.len(), self.online.input_dim(), "state dimension");
        // A batch of one through the thread's scratch trace: the floats of
        // `q_values`, none of its allocations.
        let q = SCRATCH.with_borrow_mut(|scratch| {
            let mut q = [0.0; AgentAction::COUNT];
            self.online
                .forward_batch(&mut scratch.trace, std::iter::once(state));
            scratch.trace.output_into(0, &mut q);
            q
        });
        masked_argmax(&q, mask)
    }

    /// ε-greedy action selection; pass `explore = false` at serving time.
    pub fn select_action(
        &mut self,
        state: &[f64],
        mask: &[bool; AgentAction::COUNT],
        rng: &mut impl Rng,
        explore: bool,
    ) -> AgentAction {
        self.selections += 1;
        if explore && rng.gen::<f64>() < self.epsilon() {
            let allowed = mask.iter().filter(|&&m| m).count();
            assert!(allowed > 0, "action mask permits nothing");
            let pick = rng.gen_range(0..allowed);
            let permitted = AgentAction::ALL.iter().zip(mask).filter(|(_, &m)| m);
            #[expect(
                clippy::expect_used,
                reason = "`pick` is below the count of the same filter"
            )]
            *permitted.map(|(a, _)| a).nth(pick).expect("pick < allowed")
        } else {
            self.greedy_action(state, mask)
        }
    }

    /// Stores a transition, by reference or by value: its rows are copied
    /// into the replay ring either way. The first one of a retrain builds
    /// the learner.
    ///
    /// # Panics
    /// Panics if a state is not `STATE_DIM` long or the action is out of
    /// range.
    pub fn observe(&mut self, t: impl Borrow<Transition>) {
        let (online, config) = (&self.online, &self.config);
        let learner = self
            .learner
            .get_or_insert_with(|| Learner::new(online, config));
        learner.replay.push(t.borrow());
    }

    /// One mini-batch Q-learning update. Returns the batch's mean absolute
    /// TD error, or `None` when the buffer is smaller than a batch (between
    /// retrains there is no buffer).
    ///
    /// The whole batch goes through `nn`'s minibatch kernel out of the
    /// thread's [`SCRATCH`]; the replay indices are drawn first, so the RNG
    /// stream is the one a per-sample implementation would consume. The
    /// target network is forwarded only over the drawn entries whose
    /// bootstrap is not cached: it is frozen between syncs, and a batch of
    /// any size gives each sample the same bits. Syncs fall on multiples of
    /// the agent's `train_steps`, which counts every retrain's steps.
    pub fn train_step(&mut self, rng: &mut impl Rng) -> Option<f64> {
        let batch = self.config.batch_size;
        let learner = self.learner.as_mut()?;
        if learner.replay.len() < batch {
            return None;
        }
        let gamma = self.config.gamma;
        let td_sum = SCRATCH.with_borrow_mut(|scratch| {
            let (indices, misses, trace) = (
                &mut scratch.indices,
                &mut scratch.misses,
                &mut scratch.trace,
            );
            let (targets, output_grads, grads) = (
                &mut scratch.targets,
                &mut scratch.output_grads,
                &mut scratch.grads,
            );
            let Learner {
                target,
                optimizer,
                replay,
            } = learner;
            replay.sample_indices(batch, rng, indices);
            let q_values = |trace: &ForwardTrace, sample: usize| {
                let mut q = [0.0; AgentAction::COUNT];
                trace.output_into(sample, &mut q);
                q
            };

            // Bootstrap with the target network over the *masked* next
            // actions: a non-compliant action can never back up value. A
            // terminal transition bootstraps nothing and is not forwarded.
            misses.clear();
            misses.reserve(batch);
            for &i in &*indices {
                let e = &replay.entries()[i];
                if !e.terminal && e.bootstrap.is_nan() && !misses.contains(&i) {
                    misses.push(i);
                }
            }
            if !misses.is_empty() {
                let entries = replay.entries_mut();
                let next_states = misses.iter().map(|&i| &entries[i].next_state[..]);
                target.forward_batch(trace, next_states);
                for (s, &i) in misses.iter().enumerate() {
                    let e = &mut entries[i];
                    e.bootstrap = masked_max(&q_values(trace, s), &e.next_mask());
                }
            }
            let entries = replay.entries();
            targets.clear();
            targets.extend(indices.iter().map(|&i| {
                let e = &entries[i];
                let bootstrap = if e.terminal { 0.0 } else { e.bootstrap };
                e.reward + gamma * bootstrap
            }));
            #[cfg(test)]
            assert_eq!(
                targets.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                recomputed_target_bits(target, replay, gamma, indices),
                "a cached bootstrap went stale"
            );

            let states = indices.iter().map(|&i| &entries[i].state[..]);
            self.online.forward_batch(trace, states);
            output_grads.resize(batch * AgentAction::COUNT, 0.0);
            let mut td_sum = 0.0;
            let samples = indices.iter().zip(&*targets);
            let grad_rows = output_grads.chunks_exact_mut(AgentAction::COUNT);
            for (s, ((&i, &target_q), grad_out)) in samples.zip(grad_rows).enumerate() {
                let action = entries[i].action();
                let q = q_values(trace, s)[action];
                td_sum += (q - target_q).abs();

                // Gradient flows only through the taken action's output.
                let (mut pred, mut tgt) = ([0.0; AgentAction::COUNT], [0.0; AgentAction::COUNT]);
                (pred[action], tgt[action]) = (q, target_q);
                huber_loss_grad_into(&pred, &tgt, 1.0, grad_out);
            }
            grads.reset(&self.online);
            self.online.backward_batch(trace, output_grads, grads);
            grads.scale(1.0 / batch as f64);
            grads.clip_l2_norm(self.config.grad_clip);
            self.online.apply_gradients(grads, optimizer);
            td_sum
        });

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_interval)
        {
            learner.target.copy_parameters_from(&self.online);
            for e in learner.replay.entries_mut() {
                e.bootstrap = f64::NAN;
            }
        }
        Some(td_sum / batch as f64)
    }
}

/// The oracle the bootstrap cache is held to, at every step any unit test of
/// this crate takes: the targets as they were computed before there was a
/// cache, the target network forwarded over the whole batch.
#[cfg(test)]
fn recomputed_target_bits(
    target: &Mlp,
    replay: &ReplayRing,
    gamma: f64,
    indices: &[usize],
) -> Vec<u64> {
    let mut trace = ForwardTrace::default();
    let entries = replay.entries();
    let next_states = indices.iter().map(|&i| &entries[i].next_state[..]);
    target.forward_batch(&mut trace, next_states);
    let targets = indices.iter().enumerate().map(|(s, &i)| {
        let t = &entries[i];
        let mut q = [0.0; AgentAction::COUNT];
        trace.output_into(s, &mut q);
        let bootstrap = if t.terminal {
            0.0
        } else {
            masked_max(&q, &t.next_mask())
        };
        (t.reward + gamma * bootstrap).to_bits()
    });
    targets.collect()
}

/// Argmax of `q` restricted to mask-true indices.
fn masked_argmax(q: &[f64], mask: &[bool; AgentAction::COUNT]) -> AgentAction {
    let mut best: Option<(usize, f64)> = None;
    for (i, (&qi, &m)) in q.iter().zip(mask).enumerate() {
        if !m {
            continue;
        }
        if best.is_none_or(|(_, bq)| qi > bq) {
            best = Some((i, qi));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "NoOp is always mask-permitted, so `best` is always set"
    )]
    let (idx, _) = best.expect("action mask permits nothing");
    AgentAction::ALL[idx]
}

/// Max of `q` restricted to mask-true indices (0 when nothing is allowed —
/// cannot normally happen since NoOp is always allowed).
fn masked_max(q: &[f64], mask: &[bool; AgentAction::COUNT]) -> f64 {
    q.iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(&qi, _)| qi)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(f64::MIN) // guard against -inf if mask is empty
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent(seed: u64) -> DqnAgent {
        let mut rng = StdRng::seed_from_u64(seed);
        DqnAgent::new(
            DqnConfig {
                batch_size: 8,
                replay_capacity: 512,
                epsilon_decay_steps: 100,
                ..DqnConfig::default()
            },
            &mut rng,
        )
    }

    fn full_mask() -> [bool; AgentAction::COUNT] {
        [true; AgentAction::COUNT]
    }

    #[test]
    fn q_output_matches_action_count() {
        let a = agent(1);
        assert_eq!(a.q_values(&[0.0; STATE_DIM]).len(), AgentAction::COUNT);
    }

    #[test]
    fn epsilon_decays_linearly_to_floor() {
        let mut a = agent(1);
        assert_eq!(a.epsilon(), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            a.select_action(&[0.0; STATE_DIM], &full_mask(), &mut rng, true);
        }
        assert_eq!(a.epsilon(), 0.05);
    }

    #[test]
    fn masked_selection_never_picks_forbidden_action() {
        let mut a = agent(2);
        let mut mask = full_mask();
        mask[AgentAction::SizeDown.index()] = false;
        mask[AgentAction::SuspendNow.index()] = false;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let act = a.select_action(&[0.1; STATE_DIM], &mask, &mut rng, true);
            assert_ne!(act, AgentAction::SizeDown);
            assert_ne!(act, AgentAction::SuspendNow);
        }
    }

    #[test]
    fn greedy_respects_mask_even_for_best_q() {
        let a = agent(4);
        let state = vec![0.3; STATE_DIM];
        let q = a.q_values(&state);
        let best = q
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        // The scratch-trace forward ranks the actions as `q_values` does.
        assert_eq!(a.greedy_action(&state, &full_mask()).index(), best);
        let mut mask = full_mask();
        mask[best] = false;
        let chosen = a.greedy_action(&state, &mask);
        assert_ne!(chosen.index(), best);
    }

    #[test]
    fn train_step_needs_a_full_batch() {
        let mut a = agent(5);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(a.train_step(&mut rng).is_none());
    }

    /// A one-step bandit: action 3 always yields reward 1, everything else 0.
    /// After training, the greedy policy should pick action 3.
    #[test]
    fn learns_a_simple_bandit() {
        let mut a = agent(6);
        let mut rng = StdRng::seed_from_u64(7);
        let state = vec![0.5; STATE_DIM];
        for _ in 0..400 {
            for action in 0..AgentAction::COUNT {
                a.observe(Transition {
                    state: state.clone(),
                    action,
                    reward: if action == 3 { 1.0 } else { 0.0 },
                    next_state: state.clone(),
                    next_mask: full_mask(),
                    terminal: true,
                });
            }
            a.train_step(&mut rng);
        }
        let chosen = a.greedy_action(&state, &full_mask());
        assert_eq!(chosen.index(), 3, "q: {:?}", a.q_values(&state));
    }

    /// Two-step credit assignment: action 1 now leads to a state where a
    /// big terminal reward is available; action 0 pays a small immediate
    /// reward but terminates. With gamma near 1 the agent should prefer 1.
    #[test]
    fn discounted_bootstrap_propagates_future_value() {
        let mut rng_init = StdRng::seed_from_u64(8);
        let mut a = DqnAgent::new(
            DqnConfig {
                batch_size: 16,
                gamma: 0.95,
                target_sync_interval: 50,
                epsilon_decay_steps: 1,
                ..DqnConfig::default()
            },
            &mut rng_init,
        );
        let s0 = vec![0.0; STATE_DIM];
        let mut s1 = vec![0.0; STATE_DIM];
        s1[0] = 1.0;
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..600 {
            // From s0: action 0 -> terminal +0.2; action 1 -> s1, 0 reward.
            a.observe(Transition {
                state: s0.clone(),
                action: 0,
                reward: 0.2,
                next_state: s0.clone(),
                next_mask: full_mask(),
                terminal: true,
            });
            a.observe(Transition {
                state: s0.clone(),
                action: 1,
                reward: 0.0,
                next_state: s1.clone(),
                next_mask: full_mask(),
                terminal: false,
            });
            // From s1: action 0 -> terminal +1.
            a.observe(Transition {
                state: s1.clone(),
                action: 0,
                reward: 1.0,
                next_state: s1.clone(),
                next_mask: full_mask(),
                terminal: true,
            });
            a.train_step(&mut rng);
        }
        let q0 = a.q_values(&s0);
        assert!(
            q0[1] > q0[0],
            "future +1 (discounted) should beat immediate +0.2: {q0:?}"
        );
    }

    #[test]
    fn training_reduces_td_error() {
        let mut a = agent(10);
        let mut rng = StdRng::seed_from_u64(11);
        let state = vec![0.2; STATE_DIM];
        for action in 0..AgentAction::COUNT {
            for _ in 0..32 {
                a.observe(Transition {
                    state: state.clone(),
                    action,
                    reward: action as f64 * 0.1,
                    next_state: state.clone(),
                    next_mask: full_mask(),
                    terminal: true,
                });
            }
        }
        let early: f64 = (0..10).filter_map(|_| a.train_step(&mut rng)).sum::<f64>() / 10.0;
        for _ in 0..300 {
            a.train_step(&mut rng);
        }
        let late: f64 = (0..10).filter_map(|_| a.train_step(&mut rng)).sum::<f64>() / 10.0;
        assert!(late < early, "TD error should shrink: {early} -> {late}");
    }

    #[test]
    fn same_seed_same_policy() {
        let a = agent(42);
        let b = agent(42);
        let s = vec![0.7; STATE_DIM];
        assert_eq!(a.q_values(&s), b.q_values(&s));
    }

    /// A retrain on a small idle-heavy workload, its seed given.
    fn retrain(a: &mut DqnAgent, seed: u64) {
        use crate::{train_on_workload, ConstraintSet, EpisodeConfig, SliderPosition};
        use cdw_sim::{QuerySpec, WarehouseConfig, WarehouseSize, HOUR_MS, MINUTE_MS};
        let specs: Vec<QuerySpec> = (0..6u64)
            .map(|h| {
                QuerySpec::builder(h)
                    .work_ms_xs(20_000.0)
                    .arrival_ms(h * HOUR_MS + 5 * MINUTE_MS)
                    .build()
            })
            .collect();
        let config = WarehouseConfig::new(WarehouseSize::Medium).with_auto_suspend_secs(600);
        let episodes = EpisodeConfig {
            decision_interval_ms: 20 * MINUTE_MS,
            ..EpisodeConfig::default()
        };
        let (slider, rules) = (SliderPosition::Balanced, ConstraintSet::new());
        train_on_workload(a, &specs, &config, slider, &rules, &episodes, 2, seed);
    }

    /// Export/import must be lossless: between two retrains, when the agent
    /// holds no learner, the restored agent takes the exact same training
    /// trajectory through the next retrain as the original.
    #[test]
    fn exported_state_round_trips_bit_identically() {
        let state = vec![0.4; STATE_DIM];
        let mut a = agent(13);
        retrain(&mut a, 14);
        assert!(a.learner().is_none(), "a retrain drops its learner");
        let mut b = DqnAgent::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a.q_values(&state), b.q_values(&state));
        assert_eq!((b.replay_len(), b.train_steps()), (0, a.train_steps()));
        // Continued training diverges only if hidden state differs.
        let before = a.train_steps();
        retrain(&mut a, 99);
        retrain(&mut b, 99);
        assert!(b.train_steps() > before, "the second retrain trained");
        assert_eq!(a.q_values(&state), b.q_values(&state));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    /// `NaN` marks a bootstrap the cache does not know, which is sound only
    /// while no real bootstrap is `NaN`.
    #[test]
    fn masked_max_never_returns_nan() {
        let nan = [f64::NAN; AgentAction::COUNT];
        assert_eq!(masked_max(&nan, &full_mask()), f64::MIN);
        assert_eq!(masked_max(&nan, &[false; AgentAction::COUNT]), f64::MIN);
        let mut q = nan;
        q[2] = -3.0;
        assert_eq!(masked_max(&q, &full_mask()), -3.0);
    }

    /// An agent reading bootstraps from the cache against one that forgets
    /// them all before every step, over three target syncs on a ring of 64
    /// that wraps (entries are overwritten in the middle of a sync period),
    /// and with next states the target network maps to `NaN` Q-values. Every
    /// step of both also runs `recomputed_target_bits`.
    #[test]
    fn cached_bootstraps_equal_recomputing_them_every_step() {
        fn transition(rng: &mut StdRng) -> Transition {
            let state = |rng: &mut StdRng| -> Vec<f64> {
                (0..STATE_DIM).map(|_| rng.gen_range(-1.0..2.0)).collect()
            };
            let mut t = Transition {
                state: state(rng),
                action: rng.gen_range(0..AgentAction::COUNT),
                reward: rng.gen_range(-1.5..1.5),
                next_state: state(rng),
                next_mask: std::array::from_fn(|a| a == 0 || rng.gen_range(0..3) != 0),
                terminal: rng.gen_range(0..4) == 0,
            };
            if rng.gen_range(0..16) == 0 {
                t.next_state.fill(f64::NAN);
            }
            t
        }
        let config = DqnConfig {
            replay_capacity: 64,
            ..DqnConfig::default()
        };
        let mut cached = DqnAgent::new(config, &mut StdRng::seed_from_u64(31));
        let mut feed = StdRng::seed_from_u64(32);
        for _ in 0..cached.config.batch_size {
            cached.observe(transition(&mut feed));
        }
        let mut reference = cached.clone();
        let (mut rng_c, mut rng_r) = (StdRng::seed_from_u64(33), StdRng::seed_from_u64(33));
        let mut known = 0;
        for step in 0..600 {
            let t = transition(&mut feed);
            cached.observe(t.clone());
            reference.observe(t);
            fn entries(a: &mut DqnAgent) -> &mut [crate::replay::Entry] {
                a.learner.as_mut().unwrap().replay.entries_mut()
            }
            entries(&mut reference)
                .iter_mut()
                .for_each(|e| e.bootstrap = f64::NAN);
            known += entries(&mut cached)
                .iter()
                .filter(|e| !e.bootstrap.is_nan())
                .count();
            let (td_c, td_r) = (
                cached.train_step(&mut rng_c),
                reference.train_step(&mut rng_r),
            );
            assert!(td_c.is_some());
            assert_eq!(
                td_c.map(f64::to_bits),
                td_r.map(f64::to_bits),
                "step {step}"
            );
        }
        assert_eq!(cached.train_steps(), 600);
        assert!(
            known > 0,
            "the cached agent kept bootstraps from step to step"
        );
        // Both networks, the Adam moments and every counter.
        assert_eq!(cached.to_bytes(), reference.to_bytes());
        let learner = |a: &DqnAgent| serde_json::to_string(&a.learner().unwrap()).unwrap();
        assert_eq!(learner(&cached), learner(&reference));
    }

    /// An agent between retrains that has trained: its online network has
    /// moved off its initialization, and its learner is gone.
    fn trained() -> DqnAgent {
        let mut a = agent(21);
        let mut rng = StdRng::seed_from_u64(22);
        for i in 0..12 {
            a.observe(Transition {
                state: vec![0.1 * i as f64; STATE_DIM],
                action: i % AgentAction::COUNT,
                reward: 0.5,
                next_state: vec![0.3; STATE_DIM],
                next_mask: full_mask(),
                terminal: i % 2 == 0,
            });
        }
        assert!(a.train_step(&mut rng).is_some());
        a.drop_learner();
        a
    }

    /// Where the config starts in `a.to_bytes()`: after the online
    /// network. Its first word is the hidden layers' count.
    fn config_at(a: &DqnAgent) -> usize {
        let mut head = Vec::new();
        a.online.write_le(&mut head);
        head.len()
    }

    /// `net` as a hand-edited snapshot would decode it: the first run of
    /// the eight-byte words `from` in its encoding replaced by `to`.
    fn edited(net: &Mlp, from: &[usize], to: &[usize]) -> Mlp {
        let words = |ws: &[usize]| -> Vec<u8> {
            let le_bytes = |w: &usize| (*w as u64).to_le_bytes();
            ws.iter().flat_map(le_bytes).collect()
        };
        let (from, to) = (words(from), words(to));
        let mut bytes = Vec::new();
        net.write_le(&mut bytes);
        let at = (bytes.windows(from.len()).position(|w| w == from))
            .expect("the words to edit are in the encoding");
        bytes.splice(at..at + from.len(), to);
        let mut r = Reader::new(&bytes);
        let net = Mlp::read_le(&mut r).unwrap();
        r.finish().unwrap();
        net
    }

    fn fresh_net(layers: &[usize]) -> Mlp {
        Mlp::new(
            MlpConfig::new(layers.to_vec()),
            &mut StdRng::seed_from_u64(23),
        )
    }

    #[track_caller]
    fn assert_rejected(bytes: Vec<u8>, expect: &str) {
        let err = DqnAgent::from_bytes(&bytes)
            .map(|_| ())
            .expect_err("malformed state must not restore");
        assert!(err.contains(expect), "{err:?} does not mention {expect:?}");
    }

    /// `a`'s config is refused at both doors an agent comes through, with
    /// one message: `from_bytes` returns it and `new` panics with it.
    fn assert_config_refused(a: DqnAgent, expect: &str) {
        assert_rejected(a.to_bytes(), expect);
        let built =
            std::panic::catch_unwind(|| DqnAgent::new(a.config, &mut StdRng::seed_from_u64(1)));
        let panic = built
            .map(|_| ())
            .expect_err("an invalid config must not build an agent");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains(expect), "{msg:?} does not mention {expect:?}");
    }

    #[test]
    fn state_bytes_round_trip_and_every_cut_or_extra_byte_is_refused() {
        let mut a = trained();
        // Accepted config values a float printer would not be trusted with:
        // the float just below 1, `-0.0` and `+inf`.
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        a.config.gamma = below_one;
        a.config.epsilon_end = -0.0;
        a.config.grad_clip = f64::INFINITY;
        let bytes = a.to_bytes();
        let back = DqnAgent::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "decode then encode reproduces it");
        let c = &back.config;
        assert_eq!(c.gamma.to_bits(), below_one.to_bits());
        assert_eq!(c.epsilon_end.to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.grad_clip, f64::INFINITY);
        assert_eq!((back.selections, back.train_steps), (0, 1));
        assert!(back.learner().is_none(), "the learner is not persisted");
        // Between retrains that is all of the agent: the next retrain runs
        // on from the decoded one bit for bit, odd floats and all.
        let mut back = back;
        retrain(&mut a, 28);
        retrain(&mut back, 28);
        assert_eq!(back.to_bytes(), a.to_bytes());
        // Every cut inside the scalar-dense ends, a stride through the tensors.
        for cut in (0..bytes.len()).filter(|c| *c < 256 || c % 61 == 0 || c + 256 > bytes.len()) {
            assert!(
                DqnAgent::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(DqnAgent::from_bytes(&extended)
            .map(|_| ())
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn a_count_of_2_pow_60_is_an_error_not_an_allocation() {
        // The config's hidden-layer count (2).
        let a = trained();
        let mut bytes = a.to_bytes();
        let at = config_at(&a);
        assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = DqnAgent::from_bytes(&bytes).map(|_| ()).unwrap_err();
        assert!(err.contains("cannot fit"), "{err}");
        // And the very first count of the encoding, the layer sizes'.
        let mut bytes = a.to_bytes();
        bytes[..8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(DqnAgent::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_state_accepts_what_it_exported() {
        // Trained, and fresh.
        assert!(DqnAgent::from_bytes(&trained().to_bytes()).is_ok());
        assert!(DqnAgent::from_bytes(&agent(24).to_bytes()).is_ok());
    }

    #[test]
    fn from_state_rejects_a_matrix_that_lies_about_its_size() {
        let mut a = trained();
        a.online = edited(&a.online, &[64, 14], &[65, 14]);
        assert_rejected(
            a.to_bytes(),
            "online network: layers (rows, cols, weights, biases) [(65, 14, Some(896), 64)",
        );
    }

    #[test]
    fn from_state_rejects_layers_that_do_not_chain() {
        let mut a = trained();
        // Same 2048 values, transposed shape: a valid matrix in the wrong place.
        a.online = edited(&a.online, &[32, 64], &[64, 32]);
        assert_rejected(
            a.to_bytes(),
            "(64, 14, Some(896), 64), (64, 32, Some(2048), 32)",
        );
    }

    #[test]
    fn from_state_rejects_a_network_with_no_layers() {
        let mut a = trained();
        a.online = edited(&a.online, &[4, 14, 64, 32, 8], &[1, 14]);
        assert_rejected(a.to_bytes(), "do not fit layer sizes [14]");
    }

    #[test]
    fn from_state_rejects_networks_of_the_wrong_dimensions() {
        let mut a = trained();
        a.online = fresh_net(&[STATE_DIM + 1, 8, AgentAction::COUNT]);
        assert_rejected(a.to_bytes(), "online network [15, 8, 8] is not a 14 -> 8");
        let mut a = trained();
        a.online = fresh_net(&[STATE_DIM, 8, AgentAction::COUNT + 1]);
        assert_rejected(a.to_bytes(), "online network [14, 8, 9] is not a 14 -> 8");
    }

    /// A zero batch is no mini-batch at all, and a zero capacity would
    /// panic the ring's first push.
    #[test]
    fn from_state_rejects_a_config_with_a_zero_batch_or_capacity() {
        let mut a = trained();
        a.config.batch_size = 0;
        assert_config_refused(a, "batch_size must be positive");
        let mut a = trained();
        a.config.replay_capacity = 0;
        assert_config_refused(a, "replay buffer capacity must be positive");
    }

    /// The next retrain builds its Adam from the learning rate, which
    /// `Adam::new` asserts is positive, and syncs its target on multiples of
    /// `target_sync_interval`, of which 0 has none past step 0: a learner
    /// whose target never moves. A discount outside [0, 1] (`NaN` makes
    /// every target `NaN`), an exploration rate that is no probability, and
    /// a clip that is `NaN` (no clip) or not positive (gradient ascent)
    /// would run, and poison what it trains.
    #[test]
    fn from_state_rejects_a_config_the_learner_cannot_be_built_or_run_from() {
        for lr in [0.0, -1e-3, f64::NAN, -f64::NAN, f64::NEG_INFINITY] {
            let mut a = trained();
            a.config.learning_rate = lr;
            assert_config_refused(a, "learning rate must be positive");
        }
        let mut a = trained();
        a.config.target_sync_interval = 0;
        assert_config_refused(a, "target_sync_interval must be positive");
        let outside_unit = [
            -1e-300,
            1.0 + f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
        ];
        type Field = fn(&mut DqnConfig) -> &mut f64;
        let unit_fields: [(&str, Field); 3] = [
            ("gamma", |c| &mut c.gamma),
            ("epsilon_start", |c| &mut c.epsilon_start),
            ("epsilon_end", |c| &mut c.epsilon_end),
        ];
        for (name, field) in unit_fields {
            for value in outside_unit {
                let mut a = trained();
                *field(&mut a.config) = value;
                assert_config_refused(a, &format!("{name} must lie in [0, 1]"));
            }
        }
        for clip in [0.0, -0.0, -5.0, f64::NAN, f64::NEG_INFINITY] {
            let mut a = trained();
            a.config.grad_clip = clip;
            assert_config_refused(a, "grad_clip must be positive");
        }
        // The extreme values that are not refused build and run a learner
        // whose targets and weights stay finite.
        for (gamma, epsilon) in [(0.0, 0.0), (1.0, 1.0)] {
            let mut a = trained();
            let c = &mut a.config;
            (c.learning_rate, c.target_sync_interval) = (f64::MIN_POSITIVE, 1);
            (c.gamma, c.epsilon_start, c.epsilon_end) = (gamma, epsilon, epsilon);
            c.grad_clip = f64::MIN_POSITIVE;
            let mut b = DqnAgent::from_bytes(&a.to_bytes()).unwrap();
            let mut rng = StdRng::seed_from_u64(25);
            for i in 0..b.config.batch_size {
                b.observe(Transition {
                    state: vec![0.2; STATE_DIM],
                    action: i % AgentAction::COUNT,
                    reward: 1.0,
                    next_state: vec![0.4; STATE_DIM],
                    next_mask: full_mask(),
                    terminal: false,
                });
            }
            for _ in 0..3 {
                let td = b.train_step(&mut rng);
                assert!(td.is_some_and(f64::is_finite), "{td:?} at gamma {gamma}");
            }
            let q = b.q_values(&[0.4; STATE_DIM]);
            assert!(q.iter().all(|q| q.is_finite()), "{q:?} at gamma {gamma}");
            let action = b.select_action(&[0.4; STATE_DIM], &full_mask(), &mut rng, true);
            assert!(action.index() < AgentAction::COUNT);
        }
    }

    /// The replay ring against a plain `Vec` of transitions with a cursor,
    /// the oracle: random capacities (and one of 300, full and wrapped);
    /// chained, unchained, sign-flipped (`-0.0`) and `NaN` states; and wraps.
    /// Every push returns the oracle's index, and after it both hold and draw
    /// the same transitions, bit for bit.
    #[test]
    fn replay_ring_behaves_as_a_vec_of_transitions() {
        struct Oracle {
            capacity: usize,
            items: Vec<Transition>,
            next: usize,
        }
        impl Oracle {
            fn push(&mut self, t: Transition) -> usize {
                let slot = if self.items.len() < self.capacity {
                    self.items.push(t);
                    self.items.len() - 1
                } else {
                    self.items[self.next] = t;
                    self.next
                };
                self.next = (self.next + 1) % self.capacity;
                slot
            }
        }
        /// A transition's fields, every float as its bits.
        fn bits(t: &Transition) -> Vec<u8> {
            let mut out = Vec::new();
            le::put_f64s(&mut out, &t.state);
            le::put_usize(&mut out, t.action);
            le::put_f64(&mut out, t.reward);
            le::put_f64s(&mut out, &t.next_state);
            out.extend(t.next_mask.map(u8::from));
            out.push(u8::from(t.terminal));
            out
        }
        fn row(rng: &mut StdRng) -> Vec<f64> {
            let value = |rng: &mut StdRng| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                _ => rng.gen_range(-1.0..2.0),
            };
            (0..STATE_DIM).map(|_| value(rng)).collect()
        }

        let mut rng = StdRng::seed_from_u64(41);
        for case in 0..32 {
            let (capacity, steps) = if case == 0 {
                // Full and wrapped, its cursor at 100.
                (300, 1_000)
            } else {
                let capacity: usize = rng.gen_range(1..=64);
                (capacity, rng.gen_range(0..4 * capacity + 8))
            };
            let mut ring = ReplayRing::new(capacity);
            let mut oracle = Oracle {
                capacity,
                items: Vec::new(),
                next: 0,
            };
            let mut last = row(&mut rng);
            for step in 0..steps {
                let state = match rng.gen_range(0..4) {
                    0 => row(&mut rng),
                    1 | 2 => last.clone(),
                    _ => {
                        // Flips one sign bit: 0.0 <-> -0.0, NaN <-> -NaN.
                        let mut flipped = last.clone();
                        let k = rng.gen_range(0..STATE_DIM);
                        flipped[k] = -flipped[k];
                        flipped
                    }
                };
                let t = Transition {
                    state,
                    action: rng.gen_range(0..AgentAction::COUNT),
                    reward: rng.gen_range(-1.0..1.0),
                    next_state: row(&mut rng),
                    next_mask: std::array::from_fn(|_| rng.gen_range(0..2) == 0),
                    terminal: rng.gen_range(0..4) == 0,
                };
                last = t.next_state.clone();
                let at = format!("case {case} (capacity {capacity}) step {step}");
                assert_eq!(ring.push(&t), oracle.push(t), "{at}");

                let stored: Vec<Vec<u8>> = ring.transitions().map(|t| bits(&t)).collect();
                let expected: Vec<Vec<u8>> = oracle.items.iter().map(bits).collect();
                assert_eq!(stored, expected, "{at}");
                let mut drawn = Vec::new();
                let seed = (case * 1000 + step) as u64;
                ring.sample_indices(5, &mut StdRng::seed_from_u64(seed), &mut drawn);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let oracle_drawn = (0..5).map(|_| oracle_rng.gen_range(0..oracle.items.len()));
                assert_eq!(
                    drawn.iter().map(|&i| stored[i].clone()).collect::<Vec<_>>(),
                    oracle_drawn
                        .map(|i| expected[i].clone())
                        .collect::<Vec<_>>(),
                    "{at}"
                );
            }
            assert_eq!(ring.len(), steps.min(capacity), "case {case}");
        }
    }
}
