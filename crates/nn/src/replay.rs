//! Bounded experience-replay buffer for off-policy reinforcement learning.
//!
//! The paper (§8) highlights that Keebo's DRL models "benefit from having
//! access to large historical telemetry data, which enables [them] to learn
//! from a diverse range of past experiences". This buffer is the mechanism:
//! transitions observed on historical telemetry (and simulated rollouts) are
//! stored and sampled uniformly for Q-learning updates.

use rand::Rng;

/// Ring buffer over generic transitions with uniform random sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer<T> {
    capacity: usize,
    items: Vec<T>,
    next: usize,
    total_pushed: u64,
}

impl<T: Clone> ReplayBuffer<T> {
    /// Creates a buffer holding at most `capacity` transitions. Nothing is
    /// reserved up front: the ring grows as transitions arrive, so a buffer
    /// that never fills holds only what it was given.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            capacity,
            items: Vec::new(),
            next: 0,
            total_pushed: 0,
        }
    }

    /// Adds a transition, evicting the oldest once at capacity. Returns the
    /// storage index it was written to.
    pub fn push(&mut self, item: T) -> usize {
        let slot = if self.items.len() < self.capacity {
            self.items.push(item);
            self.items.len() - 1
        } else {
            self.items[self.next] = item;
            self.next
        };
        self.next = (self.next + 1) % self.capacity;
        self.total_pushed += 1;
        slot
    }

    /// Number of transitions currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of transitions ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Draws `n` storage indices uniformly with replacement into `out`
    /// (cleared first; left empty when the buffer is empty). Read the
    /// transitions back by indexing: nothing is cloned.
    pub fn sample_indices(&self, n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        out.clear();
        if !self.items.is_empty() {
            out.extend((0..n).map(|_| rng.gen_range(0..self.items.len())));
        }
    }

    /// Iterates over the stored transitions (storage order, not insertion
    /// order once the ring has wrapped).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Drops all stored transitions, keeping the capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.next = 0;
    }

    /// Index the next push will write to (the ring cursor).
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// Rebuilds a buffer from exported parts, validating the ring invariants.
    /// The inverse of reading `capacity()`/`iter()`/`next_index()`/
    /// `total_pushed()`; used to restore persisted agent state.
    pub fn from_parts(
        capacity: usize,
        items: Vec<T>,
        next: usize,
        total_pushed: u64,
    ) -> Result<Self, String> {
        if capacity == 0 {
            return Err("replay buffer capacity must be positive".into());
        }
        if items.len() > capacity {
            return Err(format!(
                "replay buffer holds {} items but capacity is {capacity}",
                items.len()
            ));
        }
        if next >= capacity {
            return Err(format!(
                "replay cursor {next} out of range for capacity {capacity}"
            ));
        }
        if total_pushed < items.len() as u64 {
            return Err(format!(
                "total_pushed {total_pushed} is less than stored item count {}",
                items.len()
            ));
        }
        Ok(Self {
            capacity,
            items,
            next,
            total_pushed,
        })
    }
}

/// The transition at a storage index, as drawn by `sample_indices`.
impl<T> std::ops::Index<usize> for ReplayBuffer<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.items[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `n` sampled items, by value, from a freshly seeded RNG.
    fn draw<T: Clone>(buf: &ReplayBuffer<T>, n: usize, seed: u64) -> Vec<T> {
        let mut indices = vec![usize::MAX; 3]; // stale content must be cleared
        buf.sample_indices(n, &mut StdRng::seed_from_u64(seed), &mut indices);
        indices.into_iter().map(|i| buf[i].clone()).collect()
    }

    #[test]
    fn push_grows_until_capacity() {
        let mut buf = ReplayBuffer::new(3);
        assert!(buf.is_empty());
        for i in 0..3 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn a_new_buffer_reserves_nothing() {
        let buf: ReplayBuffer<u64> = ReplayBuffer::new(50_000);
        assert_eq!(buf.items.capacity(), 0);
        assert_eq!(buf.capacity(), 50_000, "the bound is kept, not reserved");
    }

    #[test]
    fn push_beyond_capacity_evicts_oldest() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            let slot = buf.push(i);
            assert_eq!((slot, buf[slot]), (i as usize % 3, i));
        }
        assert_eq!(buf.len(), 3);
        let mut contents: Vec<i32> = buf.iter().copied().collect();
        contents.sort_unstable();
        assert_eq!(contents, vec![2, 3, 4]);
        assert_eq!(buf.total_pushed(), 5);
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..4 {
            buf.push(i);
        }
        assert_eq!(draw(&buf, 7, 0).len(), 7);
    }

    #[test]
    fn sample_from_empty_buffer_is_empty() {
        let buf: ReplayBuffer<u8> = ReplayBuffer::new(4);
        assert!(draw(&buf, 3, 0).is_empty());
    }

    #[test]
    fn sample_only_returns_stored_items() {
        let mut buf = ReplayBuffer::new(8);
        for i in 10..14 {
            buf.push(i);
        }
        for s in draw(&buf, 100, 1) {
            assert!((10..14).contains(&s));
        }
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(i);
        }
        let (a, b) = (draw(&buf, 5, 9), draw(&buf, 5, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn clear_resets_contents() {
        let mut buf = ReplayBuffer::new(4);
        buf.push(1);
        buf.clear();
        assert!(buf.is_empty());
        buf.push(2);
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ReplayBuffer<u8> = ReplayBuffer::new(0);
    }

    #[test]
    fn from_parts_round_trips_a_wrapped_ring() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(i);
        }
        let rebuilt = ReplayBuffer::from_parts(
            buf.capacity(),
            buf.iter().copied().collect(),
            buf.next_index(),
            buf.total_pushed(),
        )
        .unwrap();
        assert_eq!(rebuilt.capacity(), buf.capacity());
        assert_eq!(rebuilt.next_index(), buf.next_index());
        assert_eq!(rebuilt.total_pushed(), buf.total_pushed());
        assert_eq!(
            rebuilt.iter().copied().collect::<Vec<_>>(),
            buf.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_parts_rejects_invalid_shapes() {
        assert!(ReplayBuffer::<u8>::from_parts(0, vec![], 0, 0).is_err());
        assert!(ReplayBuffer::from_parts(2, vec![1, 2, 3], 0, 3).is_err());
        assert!(ReplayBuffer::from_parts(2, vec![1], 2, 1).is_err());
        assert!(ReplayBuffer::from_parts(4, vec![1, 2], 0, 1).is_err());
    }
}
