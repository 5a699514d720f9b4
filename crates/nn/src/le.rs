//! The little-endian byte codec under the durable store's binary bytes:
//! `Matrix` / `Mlp` here, the agent state in `agent`, the action log in
//! `keebo::actuator`, the control state and the WAL tick record in
//! `keebo::persist`.
//!
//! Fixed-width fields in declaration order, no padding: `u64` and `usize` as
//! eight bytes, `f64` as its `to_bits()` (so NaN payloads and `-0.0` survive
//! by construction), a sequence or string as a `u64` count and then its
//! elements or UTF-8 bytes; a `bool` is one byte, 0 or 1, an `Option` that
//! byte and then its value if present; a caller's enum tags are single
//! bytes. One value has one encoding, so decode → encode reproduces the
//! bytes. Writing appends to a `Vec<u8>`; reading goes through [`Reader`],
//! which is total: short or lying input is an `Err`, never a panic, and a
//! count is checked against the bytes that are left before anything is
//! reserved for it.

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_usize(out: &mut Vec<u8>, n: usize) {
    // `usize` is at most 64 bits on every target Rust supports.
    put_u64(out, n as u64);
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A count, then each value's bits.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_usize(out, values.len());
    out.reserve(values.len() * 8);
    for v in values {
        put_f64(out, *v);
    }
}

/// A count, then each value.
pub fn put_usizes(out: &mut Vec<u8>, values: &[usize]) {
    put_usize(out, values.len());
    for &n in values {
        put_usize(out, n);
    }
}

/// A count, then the string's UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

pub fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// Whether `v` is present, then its value written by `put`.
pub fn put_option<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put(out, v);
    }
}

fn u64_from_le(word: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(word);
    u64::from_le_bytes(bytes)
}

/// Cursor over bytes some [`put_u64`]-family writer produced.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!(
                "truncated: {n} bytes wanted, {} left",
                self.rest.len()
            ));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64_from_le(self.take(8)?))
    }

    /// The inverse of [`put_bool`]: a byte other than 0 or 1 is an error.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("{b} is not a bool byte")),
        }
    }

    /// The inverse of [`put_option`], the value read by `read`.
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    pub fn usize(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| format!("length {n} does not fit this platform"))
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A sequence count, refused unless that many elements of at least
    /// `min_bytes` each can still follow — so the count is safe to reserve.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.usize()?;
        if n > self.rest.len() / min_bytes.max(1) {
            return Err(format!(
                "sequence of {n} elements cannot fit the {} bytes left",
                self.rest.len()
            ));
        }
        Ok(n)
    }

    /// The inverse of [`put_f64s`].
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.count(8)?;
        let words = self.take(n * 8)?.chunks_exact(8);
        Ok(words.map(|w| f64::from_bits(u64_from_le(w))).collect())
    }

    /// The inverse of [`put_str`]: bytes that are not UTF-8 are an error.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("string is not UTF-8: {e}"))
    }

    /// The inverse of [`put_usizes`].
    pub fn usizes(&mut self) -> Result<Vec<usize>, String> {
        self.seq(8, Self::usize)
    }

    /// A count, then that many elements read by `element`, each encoded in
    /// at least `min_bytes`.
    pub fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(min_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(element(self)?);
        }
        Ok(items)
    }

    /// Ends the read: bytes left over mean this was not one encoded value.
    pub fn finish(self) -> Result<(), String> {
        if self.rest.is_empty() {
            return Ok(());
        }
        Err(format!("{} trailing bytes", self.rest.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_for_bit() {
        let floats = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // a NaN with a payload
            f64::from_bits(0xFFF0_0000_0000_0001), // a signalling one
        ];
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        put_usize(&mut out, 7);
        put_f64s(&mut out, &floats);
        put_usizes(&mut out, &[3, 0, 9]);
        put_str(&mut out, "\"ALTER\" — ∅");
        put_option(&mut out, Some(-0.0), put_f64);
        put_option(&mut out, None::<u64>, put_u64);
        let mut r = Reader::new(&out);
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.usize(), Ok(7));
        let back = r.f64s().unwrap();
        assert_eq!(
            back.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(r.usizes(), Ok(vec![3, 0, 9]));
        assert_eq!(r.str().as_deref(), Ok("\"ALTER\" — ∅"));
        let zero = r.option(Reader::f64).unwrap().map(f64::to_bits);
        assert_eq!(zero, Some((-0.0f64).to_bits()));
        assert_eq!(r.option(Reader::u64), Ok(None));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_lying_count_is_refused_before_anything_is_reserved() {
        // 2^60 elements claimed, eight bytes present: were the count
        // trusted, `with_capacity` alone would abort the process.
        let mut out = Vec::new();
        put_u64(&mut out, 1 << 60);
        put_f64(&mut out, 1.0);
        assert!(Reader::new(&out).f64s().unwrap_err().contains("cannot fit"));
        assert!(Reader::new(&out)
            .usizes()
            .unwrap_err()
            .contains("cannot fit"));
        let nested = Reader::new(&out).seq(1, |r| r.f64s());
        assert!(nested.unwrap_err().contains("cannot fit"));
        assert!(Reader::new(&out).str().unwrap_err().contains("cannot fit"));
    }

    #[test]
    fn a_string_that_is_not_utf8_is_refused() {
        let mut out = Vec::new();
        put_usize(&mut out, 2);
        out.extend_from_slice(&[0xC3, 0x28]);
        assert!(Reader::new(&out).str().unwrap_err().contains("not UTF-8"));
    }

    #[test]
    fn a_bool_or_presence_byte_other_than_0_or_1_is_refused() {
        // Were 2 read as `true`, it would re-encode as 1: one value, two
        // encodings.
        for b in [2u8, 0xFF] {
            assert!(Reader::new(&[b]).bool().unwrap_err().contains("not a bool"));
            let opt = Reader::new(&[b, 0, 0, 0, 0, 0, 0, 0, 0]).option(Reader::u64);
            assert!(opt.unwrap_err().contains("not a bool"));
        }
    }

    #[test]
    fn every_truncation_and_any_trailing_byte_is_an_error() {
        let mut out = Vec::new();
        put_f64s(&mut out, &[1.0, 2.0, 3.0]);
        for cut in 0..out.len() {
            assert!(Reader::new(&out[..cut]).f64s().is_err(), "cut at {cut}");
        }
        out.push(0);
        let mut r = Reader::new(&out);
        assert!(r.f64s().is_ok());
        assert_eq!(r.finish(), Err("1 trailing bytes".to_string()));
    }
}
