//! Pins the DQN training arithmetic bit for bit.
//!
//! `train_step` is on every control tick of every warehouse, so every outcome
//! digest in the repo depends on its floats. These hashes were written
//! against the per-sample implementation (forward_trace / backward /
//! accumulate) and must survive any rewrite of the kernel unchanged: a
//! reordered sum, a fused multiply-add or a different RNG draw shows up here
//! first, in seconds, not as a moved `perf` digest.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use agent::{AgentAction, DqnAgent, DqnConfig, Transition, STATE_DIM};
use nn::le::Reader;
use nn::Mlp;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use telemetry::hash_query_text;

/// A transition stream that reaches every branch of the train step: mixed
/// actions, masks with holes (NoOp always allowed, as the constraint layer
/// guarantees), terminal and bootstrapped targets, and states — all-zero
/// ones included — that leave some ReLU units exactly dead.
fn transition(rng: &mut StdRng) -> Transition {
    let state = |rng: &mut StdRng| -> Vec<f64> {
        let zero = rng.gen_range(0..8) == 0;
        (0..STATE_DIM)
            .map(|_| if zero { 0.0 } else { rng.gen_range(-1.0..2.0) })
            .collect()
    };
    let mut next_mask = [true; AgentAction::COUNT];
    for m in &mut next_mask[1..] {
        *m = rng.gen_range(0..3) != 0;
    }
    Transition {
        state: state(rng),
        action: rng.gen_range(0..AgentAction::COUNT),
        reward: rng.gen_range(-1.5..1.5),
        next_state: state(rng),
        next_mask,
        terminal: rng.gen_range(0..4) == 0,
    }
}

/// 250 train steps (crossing the target sync at 200) folded into one hash:
/// every returned TD error, then every online/target weight and every Adam
/// moment. Finite floats serialise to their shortest round-trip text, so
/// the text identifies every bit.
fn training_hash(batch_size: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x6b77_6f20);
    let config = DqnConfig {
        batch_size,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, &mut rng);
    for _ in 0..40 {
        agent.observe(transition(&mut rng));
    }
    let mut folded = String::new();
    for _ in 0..250 {
        agent.observe(transition(&mut rng));
        let td = agent.train_step(&mut rng).expect("buffer holds a batch");
        write!(folded, "{:016x}", td.to_bits()).unwrap();
    }
    assert_eq!(agent.train_steps(), 250);
    // The agent's own bytes open with the online network; the target
    // network and the Adam moments exist while the learner does.
    let bytes = agent.to_bytes();
    let online = Mlp::read_le(&mut Reader::new(&bytes)).unwrap();
    let (target, optimizer) = agent.learner().expect("a learner is training");
    folded.push_str(&serde_json::to_string(&(&online, target, optimizer)).unwrap());
    hash_query_text(&folded)
}

#[test]
fn default_batch_of_32_is_pinned() {
    assert_eq!(training_hash(32), 0x40ed_bc52_57d5_d98a);
}

#[test]
fn batch_of_8_is_pinned() {
    assert_eq!(training_hash(8), 0x467f_9f9f_50cb_0363);
}

/// 13 is not a multiple of any block width: the remainder path.
#[test]
fn batch_of_13_is_pinned() {
    assert_eq!(training_hash(13), 0x7048_183a_99f4_3c49);
}
