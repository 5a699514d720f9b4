//! Deterministic, serializable RNG for persisted control-plane state.
//!
//! The durable control plane (see `store`/`persist`) must be able to freeze
//! an optimizer mid-run and resume it bit-identically after a crash. That
//! requires snapshotting RNG state, which `rand::rngs::StdRng` does not
//! expose. [`DetRng`] is a repo-owned xoshiro256++ generator (the same
//! algorithm family used for the repo's other deterministic streams) whose
//! four-word state persists as four `nn::le` words. It implements
//! [`rand::RngCore`], so it drops in anywhere a `&mut impl Rng` is accepted.

use cdw_sim::mix::splitmix64_next;
use nn::le::{self, Reader};

/// xoshiro256++ with splitmix64 seeding; state is `[u64; 4]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Seeds the generator by expanding `seed` through splitmix64 — the
    /// standard xoshiro seeding procedure, so streams never start in the
    /// all-zero (degenerate) state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64_next(&mut sm),
                splitmix64_next(&mut sm),
                splitmix64_next(&mut sm),
                splitmix64_next(&mut sm),
            ],
        }
    }

    /// Appends the four state words.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        self.s.iter().for_each(|&w| le::put_u64(out, w));
    }

    /// The inverse of [`DetRng::write_le`].
    pub fn read_le(r: &mut Reader) -> Result<Self, String> {
        Ok(Self {
            s: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
        })
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl rand::RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4, "streams should differ: {same} collisions");
    }

    #[test]
    fn le_round_trip_preserves_the_stream() {
        let mut a = DetRng::seed_from_u64(42);
        for _ in 0..13 {
            a.gen::<u64>();
        }
        let mut bytes = Vec::new();
        a.write_le(&mut bytes);
        assert_eq!(bytes.len(), 32);
        let mut r = Reader::new(&bytes);
        let mut b = DetRng::read_le(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(a, b);
        for _ in 0..50 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_and_bool_work_through_rng_trait() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..200 {
            let x = r.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
            let j: f64 = r.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&j));
            let _ = r.gen_bool(0.5);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = DetRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
