//! The two stream mixers every seed and digest in the workspace flows
//! through: splitmix64 (Steele, Lea & Flood 2014) and 64-bit FNV-1a. Neither
//! is cryptographic; both are pure functions of their input, so a seed
//! derived or a digest folded with them reproduces bit for bit.

/// splitmix64's increment, the golden-ratio gamma.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64 as a pure mixer: the output the generator gives from state
/// `x`, used to decorrelate nearby seeds and hashes.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 as a generator: advances `state` one step and returns that
/// step's output.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

/// An order-sensitive FNV-1a accumulator over bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard 64-bit offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// An accumulator starting from `basis` instead of the offset basis.
    pub fn with_basis(basis: u64) -> Self {
        Self(basis)
    }

    /// Folds `bytes` in, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::with_basis(Self::OFFSET_BASIS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_steps_from_zero_to_the_reference_outputs() {
        let mut state = 0;
        let outs = [(); 3].map(|()| splitmix64_next(&mut state));
        assert_eq!(
            outs,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
        // The pure form is the generator's output at that state.
        assert_eq!(splitmix64(0), outs[0]);
        assert_eq!(splitmix64(GAMMA), outs[1]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let fnv = |s: &str| Fnv1a::default().write(s.as_bytes()).finish();
        assert_eq!(fnv(""), Fnv1a::OFFSET_BASIS);
        assert_eq!(fnv(""), 0xcbf29ce484222325);
        assert_eq!(fnv("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv("foobar"), 0x85944171f73967e8);
        // Writing in pieces is writing the whole.
        let mut h = Fnv1a::default();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv("foobar"));
    }
}
