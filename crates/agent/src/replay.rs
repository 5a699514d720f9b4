//! The DQN's experience-replay ring (§8: the smart model learns "from a
//! diverse range of past experiences" replayed from historical telemetry).
//!
//! A bounded FIFO of transitions with uniform sampling, stored in two parts
//! so that a state is held once however many transitions name it:
//!
//! * **Slots** — one 32-byte `Slot` per transition: the row ids of its state
//!   and next state, the reward, the action, the next state's action mask as
//!   a bit set and the terminal flag. Slot `i` is the transition at storage
//!   index `i`, which is what `sample_indices` draws. Slots sit in chunks of
//!   `SLOTS_PER_CHUNK`, added as the ring grows and kept once it is full.
//! * **Rows** — a FIFO arena of `[f64; STATE_DIM]` rows in chunks of
//!   `ROWS_PER_CHUNK`, addressed by ids that only grow. The arena pushes
//!   chunks at its back and releases them at its front.
//!
//! No chunk of either kind is ever reallocated: a ring grows without the
//! copies, and the freed blocks half the new size, that a doubling vector
//! leaves in the heap.
//!
//! A transition usually starts in the exact state the previous one ended in
//! (an episode is a chain), so a push reuses the previous transition's
//! next-state row when the incoming state equals it bit for bit (`to_bits`,
//! so `0.0` and `-0.0` never merge, a `NaN` merges only with its own bits).
//! Row ids are therefore non-decreasing in insertion order, the oldest live
//! slot's state is the lowest live row, and eviction releases every whole
//! chunk behind it. One released chunk is kept as a spare, so a warm, full
//! ring allocates nothing.
//!
//! The ring's observable behaviour — which storage index a push writes,
//! what each index holds, which indices a seeded draw returns — is that of a
//! plain `Vec` of transitions with a cursor. A ring lives for one
//! `train_on_workload` call and is never persisted.

use crate::action::AgentAction;
use crate::dqn::Transition;
use crate::state::STATE_DIM;
use rand::Rng;
use std::collections::VecDeque;

/// Rows per arena chunk: 64 × 112 B = 7 KiB, small enough that a ring which
/// never fills holds little slack, large enough that the chunk list is short.
const ROWS_PER_CHUNK: usize = 64;

/// Slots per slot chunk: 256 × 32 B = 8 KiB (a ring's last chunk stops at
/// its capacity).
const SLOTS_PER_CHUNK: usize = 256;

type Row = [f64; STATE_DIM];
type Chunk = Box<[Row; ROWS_PER_CHUNK]>;

// The next mask is stored as one bit per action.
const _: () = assert!(AgentAction::COUNT <= 8);

/// One stored transition, its states by row id.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    state: u64,
    next_state: u64,
    pub reward: f64,
    action: u8,
    next_mask: u8,
    pub terminal: bool,
}

impl Slot {
    /// Index of the action taken.
    pub fn action(&self) -> usize {
        usize::from(self.action)
    }

    /// The actions permitted in the next state.
    pub fn next_mask(&self) -> [bool; AgentAction::COUNT] {
        std::array::from_fn(|a| self.next_mask & (1 << a) != 0)
    }
}

/// States in fixed chunks, addressed by monotone row ids.
#[derive(Debug, Clone, Default)]
struct RowArena {
    chunks: VecDeque<Chunk>,
    /// Id of the first row of `chunks[0]`, a multiple of `ROWS_PER_CHUNK`.
    base: u64,
    /// Id the next pushed row gets.
    end: u64,
    /// The last chunk released, reused by the next push that needs one.
    spare: Option<Chunk>,
}

impl RowArena {
    fn push(&mut self, row: &[f64]) -> u64 {
        let offset = (self.end - self.base) as usize;
        if offset == self.chunks.len() * ROWS_PER_CHUNK {
            let fresh = || Box::new([[0.0; STATE_DIM]; ROWS_PER_CHUNK]);
            self.chunks
                .push_back(self.spare.take().unwrap_or_else(fresh));
        }
        self.chunks[offset / ROWS_PER_CHUNK][offset % ROWS_PER_CHUNK].copy_from_slice(row);
        self.end += 1;
        self.end - 1
    }

    fn get(&self, id: u64) -> &Row {
        debug_assert!((self.base..self.end).contains(&id), "row {id} is not live");
        let offset = (id - self.base) as usize;
        &self.chunks[offset / ROWS_PER_CHUNK][offset % ROWS_PER_CHUNK]
    }

    /// Releases every chunk whose rows all lie before row `id`.
    fn release_before(&mut self, id: u64) {
        while id >= self.base + ROWS_PER_CHUNK as u64 {
            let Some(chunk) = self.chunks.pop_front() else {
                break;
            };
            self.spare.get_or_insert(chunk);
            self.base += ROWS_PER_CHUNK as u64;
        }
    }
}

/// Bounded FIFO of transitions with uniform random sampling.
#[derive(Debug, Clone)]
pub(crate) struct ReplayRing {
    capacity: usize,
    /// Slot `i` is `slots[i / SLOTS_PER_CHUNK][i % SLOTS_PER_CHUNK]`.
    slots: Vec<Box<[Slot]>>,
    len: usize,
    /// Storage index the next push writes once the ring is full. Before
    /// that it equals `len`, which FIFO release relies on.
    next: usize,
    rows: RowArena,
}

impl ReplayRing {
    /// A ring holding at most `capacity` transitions. Nothing is reserved up
    /// front: slots and rows grow as transitions arrive.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            capacity,
            slots: Vec::new(),
            len: 0,
            next: 0,
            rows: RowArena::default(),
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
        let newest = self
            .get((self.next + self.capacity - 1) % self.capacity)
            .copied();
        let state = match newest {
            Some(prev) if same_bits(self.rows.get(prev.next_state), &t.state) => prev.next_state,
            _ => self.rows.push(&t.state),
        };
        let slot = Slot {
            state,
            next_state: self.rows.push(&t.next_state),
            reward: t.reward,
            action: t.action as u8,
            next_mask: (t.next_mask.iter().enumerate())
                .fold(0, |bits, (a, &allowed)| bits | (u8::from(allowed) << a)),
            terminal: t.terminal,
        };
        let index = if self.len < self.capacity {
            if self.len.is_multiple_of(SLOTS_PER_CHUNK) {
                let size = SLOTS_PER_CHUNK.min(self.capacity - self.len);
                self.slots
                    .push(vec![Slot::default(); size].into_boxed_slice());
            }
            self.len += 1;
            self.len - 1
        } else {
            self.next
        };
        *self.slot_mut(index) = slot;
        self.next = (self.next + 1) % self.capacity;
        // Once full, the slot under the cursor is the oldest live one.
        if let Some(&oldest) = self.get(self.next) {
            self.rows.release_before(oldest.state);
        }
        index
    }

    /// Number of transitions currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Draws `n` storage indices uniformly with replacement into `out`
    /// (cleared first; left empty when the ring is empty).
    pub fn sample_indices(&self, n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        out.clear();
        if self.len > 0 {
            out.extend((0..n).map(|_| rng.gen_range(0..self.len)));
        }
    }

    /// The transition at storage index `i`, less its states.
    pub fn slot(&self, i: usize) -> &Slot {
        debug_assert!(i < self.len, "slot {i} of {}", self.len);
        &self.slots[i / SLOTS_PER_CHUNK][i % SLOTS_PER_CHUNK]
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        &mut self.slots[i / SLOTS_PER_CHUNK][i % SLOTS_PER_CHUNK]
    }

    fn get(&self, i: usize) -> Option<&Slot> {
        (i < self.len).then(|| self.slot(i))
    }

    /// The state of the transition at storage index `i`.
    pub fn state(&self, i: usize) -> &Row {
        self.rows.get(self.slot(i).state)
    }

    /// The next state of the transition at storage index `i`.
    pub fn next_state(&self, i: usize) -> &Row {
        self.rows.get(self.slot(i).next_state)
    }

    /// The stored transitions, materialized, in storage order (not insertion
    /// order once the ring has wrapped).
    #[cfg(test)]
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        (0..self.len()).map(|i| {
            let slot = self.slot(i);
            Transition {
                state: self.state(i).to_vec(),
                action: slot.action(),
                reward: slot.reward,
                next_state: self.next_state(i).to_vec(),
                next_mask: slot.next_mask(),
                terminal: slot.terminal,
            }
        })
    }
}

#[cfg(test)]
impl ReplayRing {
    /// Rows ever pushed into the arena.
    pub fn rows_pushed(&self) -> u64 {
        self.rows.end
    }
}

fn same_bits(row: &Row, state: &[f64]) -> bool {
    row.len() == state.len()
        && row
            .iter()
            .zip(state)
            .all(|(a, b)| a.to_bits() == b.to_bits())
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
        indices.into_iter().map(|i| ring.slot(i).reward).collect()
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
        assert!(ring.slots.is_empty());
        assert!(ring.rows.chunks.is_empty() && ring.rows.spare.is_none());
        assert_eq!(ring.capacity, 50_000, "the bound is kept, not reserved");
    }

    #[test]
    fn push_beyond_capacity_evicts_oldest() {
        let mut ring = ReplayRing::new(3);
        for i in 0..5 {
            let slot = ring.push(&t(i as f64));
            assert_eq!((slot, ring.slot(slot).reward), (i % 3, i as f64));
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

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        ReplayRing::new(0);
    }

    /// An action is stored in a byte: 257 must not wrap to 1.
    #[test]
    #[should_panic(expected = "action 257 out of range")]
    fn an_out_of_range_action_panics_instead_of_wrapping() {
        ReplayRing::new(4).push(&Transition {
            action: 257,
            ..t(0.0)
        });
    }

    #[test]
    fn slot_chunks_are_added_as_the_ring_grows_and_stop_at_its_capacity() {
        let chunk_lens = |ring: &ReplayRing| ring.slots.iter().map(|c| c.len()).collect::<Vec<_>>();
        let mut ring = ReplayRing::new(300);
        ring.push(&t(0.0));
        assert_eq!(chunk_lens(&ring), [256]);
        for i in 1..1_000 {
            ring.push(&t(i as f64));
        }
        assert_eq!(chunk_lens(&ring), [256, 44]);
        let rewards = (ring.slot(299).reward, ring.slot(99).reward);
        assert_eq!(rewards, (899.0, 999.0));
    }

    #[test]
    fn a_slot_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    #[test]
    fn a_state_equal_in_every_bit_is_stored_once() {
        let mut ring = ReplayRing::new(16);
        let mut chained = t(1.0);
        chained.next_state[0] = f64::from_bits(0x7FF8_0000_0000_0BAD);
        ring.push(&chained);
        chained.state = chained.next_state.clone();
        ring.push(&chained); // the same NaN bits: shared
        assert_eq!((ring.rows_pushed(), ring.slot(1).state), (3, 1));

        let mut zero = t(0.0);
        zero.next_state[3] = 0.0;
        ring.push(&zero);
        let mut signed = zero.clone();
        signed.state = zero.next_state.clone();
        signed.state[3] = -0.0; // equal to the last next state as a float, not as bits
        ring.push(&signed);
        assert_eq!(ring.rows_pushed(), 3 + 2 + 2);
        assert_eq!(ring.state(3)[3].to_bits(), (-0.0f64).to_bits());
        assert_eq!(ring.next_state(2)[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn eviction_releases_whole_chunks_and_keeps_one_spare() {
        let mut ring = ReplayRing::new(100);
        for i in 0..1_000 {
            ring.push(&t(i as f64)); // unchained: two rows a transition
                                     // 200 live rows start anywhere in their first chunk: five at most.
            assert!(
                ring.rows.chunks.len() <= 5,
                "{} chunks",
                ring.rows.chunks.len()
            );
        }
        assert!(ring.rows.spare.is_some());
        assert_eq!(ring.rows.base % ROWS_PER_CHUNK as u64, 0);
        assert_eq!(
            ring.rows.base, 1_792,
            "rows below the oldest state, whole chunks"
        );
        assert_eq!(ring.state(ring.next)[0], 900.0);
    }
}
