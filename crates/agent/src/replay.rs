//! The DQN's experience-replay ring (§8: the smart model learns "from a
//! diverse range of past experiences" replayed from historical telemetry).
//!
//! A bounded FIFO of transitions with uniform sampling: one `Vec` of inline
//! entries and a cursor. Entry `i` is the transition at storage index `i`,
//! which is what `sample_indices` draws; once the ring is full a push
//! overwrites the entry under the cursor, the oldest. Each entry also caches
//! its own bootstrap for the learner. A ring lives for one
//! `train_on_workload` call — a few thousand transitions at most — and is
//! never persisted.

use crate::action::AgentAction;
use crate::dqn::Transition;
use crate::state::STATE_DIM;
use rand::Rng;

type Row = [f64; STATE_DIM];

// The next mask is stored as one bit per action.
const _: () = assert!(AgentAction::COUNT <= 8);

/// One stored transition.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub state: Row,
    pub next_state: Row,
    pub reward: f64,
    /// `max_a' Q_target(s', a')` under the next mask, as the learner last
    /// computed it; `NaN` = not computed. A pushed entry starts unknown, and
    /// the learner forgets every entry's at a target sync.
    pub bootstrap: f64,
    action: u8,
    next_mask: u8,
    pub terminal: bool,
}

impl Entry {
    /// Index of the action taken.
    pub fn action(&self) -> usize {
        usize::from(self.action)
    }

    /// The actions permitted in the next state.
    pub fn next_mask(&self) -> [bool; AgentAction::COUNT] {
        std::array::from_fn(|a| self.next_mask & (1 << a) != 0)
    }
}

/// Bounded FIFO of transitions with uniform random sampling.
#[derive(Debug, Clone)]
pub(crate) struct ReplayRing {
    capacity: usize,
    entries: Vec<Entry>,
    /// Storage index the next push writes once the ring is full.
    next: usize,
}

impl ReplayRing {
    /// A ring holding at most `capacity` transitions, which
    /// [`crate::DqnConfig::validate`] holds positive. Nothing is reserved up
    /// front: entries grow as transitions arrive.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            next: 0,
        }
    }

    /// Copies a transition in, evicting the oldest once at capacity. Returns
    /// the storage index it was written to.
    ///
    /// # Panics
    /// Panics if a state is not `STATE_DIM` long or the action is out of
    /// range.
    pub fn push(&mut self, t: &Transition) -> usize {
        assert!(
            t.action < AgentAction::COUNT,
            "action {} out of range",
            t.action
        );
        let row = |s: &[f64]| -> Row {
            assert_eq!(s.len(), STATE_DIM, "state dimension");
            std::array::from_fn(|k| s[k])
        };
        let entry = Entry {
            state: row(&t.state),
            next_state: row(&t.next_state),
            reward: t.reward,
            bootstrap: f64::NAN,
            action: t.action as u8,
            next_mask: (t.next_mask.iter().enumerate())
                .fold(0, |bits, (a, &allowed)| bits | (u8::from(allowed) << a)),
            terminal: t.terminal,
        };
        let index = self.next;
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.entries[index] = entry;
        }
        self.next = (index + 1) % self.capacity;
        index
    }

    /// Number of transitions currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The stored transitions in storage order (not insertion order once
    /// the ring has wrapped).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// As [`ReplayRing::entries`], for the learner's bootstrap cache.
    pub fn entries_mut(&mut self) -> &mut [Entry] {
        &mut self.entries
    }

    /// Draws `n` storage indices uniformly with replacement into `out`
    /// (cleared first; left empty when the ring is empty).
    pub fn sample_indices(&self, n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        out.clear();
        if !self.entries.is_empty() {
            out.extend((0..n).map(|_| rng.gen_range(0..self.entries.len())));
        }
    }

    /// The stored transitions, materialized, in storage order.
    #[cfg(test)]
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        self.entries.iter().map(|e| Transition {
            state: e.state.to_vec(),
            action: e.action(),
            reward: e.reward,
            next_state: e.next_state.to_vec(),
            next_mask: e.next_mask(),
            terminal: e.terminal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A transition identified by its reward, its states derived from it.
    fn t(reward: f64) -> Transition {
        Transition {
            state: vec![reward; STATE_DIM],
            action: 1,
            reward,
            next_state: vec![reward + 0.5; STATE_DIM],
            next_mask: [true; AgentAction::COUNT],
            terminal: false,
        }
    }

    fn rewards(ring: &ReplayRing) -> Vec<f64> {
        ring.transitions().map(|t| t.reward).collect()
    }

    /// The rewards of `n` sampled transitions, from a freshly seeded RNG.
    fn draw(ring: &ReplayRing, n: usize, seed: u64) -> Vec<f64> {
        let mut indices = vec![usize::MAX; 3]; // stale content must be cleared
        ring.sample_indices(n, &mut StdRng::seed_from_u64(seed), &mut indices);
        indices
            .into_iter()
            .map(|i| ring.entries()[i].reward)
            .collect()
    }

    #[test]
    fn push_grows_until_capacity() {
        let mut ring = ReplayRing::new(3);
        assert_eq!(ring.len(), 0);
        for i in 0..3 {
            ring.push(&t(i as f64));
        }
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn a_new_buffer_reserves_nothing() {
        let ring = ReplayRing::new(50_000);
        assert_eq!(ring.entries.capacity(), 0);
        assert_eq!(ring.capacity, 50_000, "the bound is kept, not reserved");
    }

    #[test]
    fn push_beyond_capacity_evicts_oldest() {
        let mut ring = ReplayRing::new(3);
        for i in 0..5 {
            let at = ring.push(&t(i as f64));
            assert_eq!((at, ring.entries()[at].reward), (i % 3, i as f64));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(rewards(&ring), vec![3.0, 4.0, 2.0]);
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut ring = ReplayRing::new(10);
        for i in 0..4 {
            ring.push(&t(i as f64));
        }
        assert_eq!(draw(&ring, 7, 0).len(), 7);
    }

    #[test]
    fn sample_from_empty_buffer_is_empty() {
        assert!(draw(&ReplayRing::new(4), 3, 0).is_empty());
    }

    #[test]
    fn sample_only_returns_stored_items() {
        let mut ring = ReplayRing::new(8);
        for i in 10..14 {
            ring.push(&t(i as f64));
        }
        for reward in draw(&ring, 100, 1) {
            assert!((10.0..14.0).contains(&reward));
        }
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let mut ring = ReplayRing::new(8);
        for i in 0..8 {
            ring.push(&t(i as f64));
        }
        assert_eq!(draw(&ring, 5, 9), draw(&ring, 5, 9));
    }

    /// An action is stored in a byte: 257 must not wrap to 1. A state of the
    /// wrong length must not be cut or padded to fit its row.
    #[test]
    #[should_panic(expected = "action 257 out of range")]
    fn an_out_of_range_action_panics_instead_of_wrapping() {
        for (state, next_state) in [(STATE_DIM + 1, STATE_DIM), (STATE_DIM, STATE_DIM - 1)] {
            let wrong = Transition {
                state: vec![0.0; state],
                next_state: vec![0.0; next_state],
                ..t(0.0)
            };
            let pushed = std::panic::catch_unwind(|| ReplayRing::new(4).push(&wrong));
            let message = pushed.expect_err("a wrong-length state is refused");
            let message = message.downcast_ref::<String>().map(String::as_str);
            assert!(message.is_some_and(|m| m.contains("state dimension")));
        }
        ReplayRing::new(4).push(&Transition {
            action: 257,
            ..t(0.0)
        });
    }
}
