//! Offline stand-in for the part of `rand` 0.8 the workspace uses.
//!
//! The benchmark has to build in a checkout with no registry and no network,
//! so `offline/cargo-config.toml` patches `rand` to this crate. It keeps the API shape
//! (`StdRng`, `SeedableRng`, `RngCore`, `Rng::{gen, gen_range, gen_bool}`)
//! and the statistical contract (uniform, seed-determined streams); it does
//! **not** reproduce the upstream ChaCha12 bit stream, so digests and
//! savings measured under the benchmark are those of this generator.
//!
//! `StdRng` is xoshiro256++ seeded through splitmix64; integer ranges use
//! Lemire's widening-multiply rejection so they are exactly uniform.

use std::ops::{Range, RangeInclusive};

/// Error type of the fallible fill (never produced here).
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("rng error")
    }
}

impl std::error::Error for Error {}

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;

    /// No OS entropy offline: a fixed seed keeps callers deterministic.
    fn from_entropy() -> Self {
        Self::seed_from_u64(0x5EED_0FF1_1CE5_EED5)
    }
}

/// Values `Rng::gen` can produce.
pub trait Standard: Sized {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// 53 random mantissa bits: uniform on `[0, 1)`.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Exactly uniform draw from `[0, span)`; `span == 0` means the full range.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let mut m = (rng.next_u64() as u128) * (span as u128);
    if (m as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
        }
    }
    (m >> 64) as u64
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                // A span of 2^64 wraps to 0, which `below` reads as "full range".
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                loop {
                    let u = <$t as Standard>::standard(rng);
                    let v = self.start + (self.end - self.start) * u;
                    // Rounding can land on the excluded end; redraw.
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * <$t as Standard>::standard(rng)
            }
        }
    )*};
}

float_ranges!(f32, f64);

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        <f64 as Standard>::standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), seeded through splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    /// Thread-local generator handle; offline it is a fixed-seed `StdRng`.
    pub type ThreadRng = StdRng;
}

pub fn thread_rng() -> rngs::ThreadRng {
    rngs::StdRng::from_entropy()
}

pub fn random<T: Standard>() -> T {
    T::standard(&mut thread_rng())
}

pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            StdRng::seed_from_u64(1).next_u64(),
            StdRng::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let i: usize = rng.gen_range(3..9);
            assert!((3..9).contains(&i));
            let j: u64 = rng.gen_range(0..=4);
            assert!(j <= 4);
            let k: i64 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&k));
            let f: f64 = rng.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&f));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn integer_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u32; 6];
        for _ in 0..60_000 {
            hits[rng.gen_range(0..6usize)] += 1;
        }
        for h in hits {
            assert!((9_300..10_700).contains(&h), "bucket count {h}");
        }
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(5);
        let dynamic: &mut dyn RngCore = &mut rng;
        let v: f64 = dynamic.gen_range(1.0..2.0);
        assert!((1.0..2.0).contains(&v));
        assert!(!dynamic.gen_bool(0.0));
        assert!(dynamic.gen_bool(1.0));
    }
}
