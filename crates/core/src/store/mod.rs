//! Durable state stores for the control plane: two media and one fault
//! decorator.
//!
//! The paper's warehouse optimizer runs as a long-lived service; §7 stresses
//! that optimization must be "fully automated" and safe to operate. A
//! control plane that forgets its learned models and reconciliation state on
//! every restart is neither: it would re-onboard each warehouse (re-running
//! exploration against live traffic) and lose its savings accounting. This
//! module provides the storage layer for a crash-safe control plane:
//!
//! * [`StateStore`] — point-in-time snapshot plus an append-only record log
//!   (write-ahead log, WAL). Snapshots bound replay time; the WAL captures
//!   every tick since the last snapshot. A store keeps one snapshot: restore
//!   reads nothing older.
//! * [`MemStore`] — in-memory store for tests and crash drills. Cloning
//!   shares the backing storage, so a harness can keep a handle across an
//!   orchestrator "crash" (drop).
//! * [`FileStore`] — file-backed store with length+CRC32-framed records,
//!   atomic (tmp file + rename) snapshot writes, a generation number that
//!   ties the WAL to the snapshot it extends, and torn-tail truncation on
//!   load: a record half-written at kill time is dropped, never replayed.
//! * [`FaultyStore`] — a decorator over either medium that simulates a
//!   remote service (the memory/redis/dynamodb spread of a real deployment)
//!   by seeded fault injection via [`StoreFaultPlan`] — append errors,
//!   snapshot write failures, and read timeouts, all deterministic so the
//!   crash-drill matrix is reproducible. It owns the plan and the op
//!   counter and forwards everything else.
//! * [`CrashPlan`] — deterministic crash-injection schedule for the recovery
//!   harness (kill tick and torn-write byte offset from a seed).
//!
//! Crash model: the *control plane* process dies; the warehouse (the cloud)
//! keeps running. A clean crash at a tick boundary loses nothing — recovery
//! replays the WAL and resumes bit-identically. A torn write loses at most
//! the final unflushed record; recovery truncates the tail and resumes from
//! the last complete record. A *faulty* store (either medium under injected
//! faults) degrades durability fail-open: the orchestrator retries
//! transient errors in line, counts every failure under `keebo.store.*`,
//! and only detaches when an append can never land.

use cdw_sim::mix::splitmix64;
use std::io;

mod faulty;
mod file;
mod mem;

pub use faulty::{FaultyStore, StoreFaultPlan};
pub use file::FileStore;
pub(crate) use file::WAL_FILE;
pub use mem::MemStore;

/// One step of the bitwise CRC-32 (IEEE 802.3, reflected polynomial): `crc`
/// shifted through eight zero bits.
const fn crc32_shift_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `[0]` is the classic byte table, `[k][b]` is byte
/// `b` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        tables[0][b] = crc32_shift_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, eight bytes per step: every
/// snapshot and WAL record passes through here on its way in and out, so the
/// bit-at-a-time loop (kept below as the test oracle) was most of what a
/// store operation cost.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// Everything a store holds, as read back at recovery time.
#[derive(Debug, Default)]
pub struct StoreContents {
    /// The latest snapshot payload, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// WAL record payloads appended since that snapshot, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Bytes dropped from a torn WAL tail while loading (0 for a clean log).
    pub truncated_bytes: u64,
}

/// A durable home for control-plane state: one snapshot slot plus an
/// append-only record log that `write_snapshot` compacts.
pub trait StateStore: Send {
    /// Appends one record payload to the log.
    fn append(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Atomically replaces the snapshot and compacts (empties) the log.
    fn write_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()>;

    /// Reads back the snapshot and log, validating integrity. A torn log
    /// tail is truncated (reported via `truncated_bytes`), not an error; a
    /// corrupt snapshot *is* an error, because snapshot writes are atomic.
    fn load(&mut self) -> io::Result<StoreContents>;

    /// Records appended since the last snapshot.
    fn wal_records(&self) -> u64;

    /// Bytes in the log since the last snapshot (framing included).
    fn wal_bytes(&self) -> u64;

    /// Size of the last snapshot payload written or loaded.
    fn snapshot_bytes(&self) -> u64;

    /// Asks the store to keep `generations` superseded snapshots. No store
    /// here does: restore reads only the latest, so this is a no-op kept for
    /// decorators that forward it.
    fn set_snapshot_retention(&mut self, generations: u32) {
        let _ = generations;
    }

    /// Snapshot payloads currently held: one once a snapshot has landed.
    fn snapshot_generations(&self) -> u64 {
        u64::from(self.snapshot_bytes() > 0)
    }
}

pub(crate) const FRAME_HEADER_BYTES: usize = 8; // u32 length + u32 crc32

/// The eight bytes that precede `payload` in a frame. A payload the `u32`
/// length cannot describe is refused: written anyway, its frame would lie
/// about where it ends and everything after it would scan as garbage.
pub(crate) fn frame_header(payload: &[u8]) -> io::Result<[u8; FRAME_HEADER_BYTES]> {
    let len = frame_len(payload.len())?;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(header)
}

fn frame_len(payload_len: usize) -> io::Result<u32> {
    u32::try_from(payload_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {payload_len}-byte payload does not fit a frame's u32 length"),
        )
    })
}

/// Outcome of scanning a frame stream: complete payloads plus how many bytes
/// of the prefix were valid (anything after is a torn/corrupt tail).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FrameScan {
    pub payloads: Vec<Vec<u8>>,
    pub valid_bytes: usize,
}

/// Decodes as many complete, checksum-valid frames as possible from the
/// front of `bytes`. Total: never panics, whatever the input — arbitrary
/// bytes just yield a shorter (possibly empty) prefix. The verify fuzzer
/// drives this with raw genome bytes.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER_BYTES {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let start = pos + FRAME_HEADER_BYTES;
        let Some(end) = start.checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        pos = end;
    }
    FrameScan {
        payloads,
        valid_bytes: pos,
    }
}

/// Deterministic crash-injection schedule: derived purely from a seed so
/// every (scenario, crash) pair is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Tick boundary (1-based tick count into the run) after which the
    /// control plane is killed.
    pub crash_tick: u64,
    seed: u64,
}

impl CrashPlan {
    /// Derives a plan from `seed` for a run of `total_ticks` ticks. The
    /// crash lands strictly inside the run (never before the first tick,
    /// never at/after the last) so recovery always has work on both sides.
    pub fn from_seed(seed: u64, total_ticks: u64) -> Self {
        let span = total_ticks.saturating_sub(2).max(1);
        let crash_tick = 1 + splitmix64(seed ^ 0xC2A5_9F5C_7E1D_3B41) % span;
        Self { crash_tick, seed }
    }

    /// Byte offset to tear a WAL (or its final frame) of `wal_len` bytes at,
    /// in `(0, wal_len)` — always cuts at least one byte so the final record
    /// really is damaged. Whether a kill tears at all is the drill's choice
    /// ([`crate::drill::DrillCell::torn`]).
    pub fn torn_offset(&self, wal_len: u64) -> u64 {
        if wal_len <= 1 {
            return 0;
        }
        splitmix64(self.seed ^ 0x1B56_C4E9_9C30_A2F7) % (wal_len - 1) + 1
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch dir per test invocation (tests run in parallel).
    pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("kwo-store-{}-{tag}-{n}", std::process::id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdw_sim::mix::splitmix64_next;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The loop the tables replaced, one bit at a time: the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_equals_the_bitwise_loop_at_every_length_and_alignment() {
        let mut sm = 0x5EED_C2C3_2021_u64;
        // Lengths 0..=64 hit every tail after 0..=8 whole steps; the start
        // offset walks the buffer's alignment. Then three snapshot-sized
        // buffers with ragged ends.
        let shapes = (0..256usize).map(|case| (case / 65, case % 65)).chain([
            (1, 1 << 20),
            (3, (3 << 19) + 5),
            (0, (2 << 20) - 1),
        ]);
        for (offset, len) in shapes {
            let buffer: Vec<u8> = (0..offset + len)
                .map(|_| splitmix64_next(&mut sm).to_le_bytes()[0])
                .collect();
            let bytes = &buffer[offset..];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "{len} bytes at offset {offset}"
            );
        }
    }

    /// A three-record `wal.log` written by the commit before the tables:
    /// each frame's length and CRC in hex, then its payload (a 56-byte
    /// record, an empty one, five bytes spanning 0x00..=0xFF).
    const PARENT_WAL: &[u8] = b"\x38\x00\x00\x00\x41\x91\x19\x7b\
        {\"SliderChanged\":{\"warehouse\":\"WH\",\"slider\":\"Balanced\"}}\
        \x00\x00\x00\x00\x00\x00\x00\x00\
        \x05\x00\x00\x00\xc3\xbf\xb2\x26\x00\xff\x80\x7f\x01";

    #[test]
    fn frames_written_before_the_tables_still_scan_and_re_frame_byte_for_byte() {
        let wal = PARENT_WAL;
        let scan = scan_frames(wal);
        assert_eq!(scan.valid_bytes, wal.len());
        let slider = br#"{"SliderChanged":{"warehouse":"WH","slider":"Balanced"}}"#;
        let expected = [&slider[..], &[], &[0x00, 0xFF, 0x80, 0x7F, 0x01]];
        assert_eq!(scan.payloads, expected);
        let mut rewritten = Vec::new();
        for payload in &scan.payloads {
            rewritten.extend_from_slice(&frame_header(payload).unwrap());
            rewritten.extend_from_slice(payload);
        }
        assert_eq!(rewritten, wal);
    }

    #[test]
    fn a_payload_the_length_prefix_cannot_describe_is_refused() {
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        if let Some(too_long) = (u32::MAX as usize).checked_add(1) {
            let err = frame_len(too_long).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn scan_frames_is_total_on_arbitrary_bytes() {
        assert_eq!(scan_frames(&[]), FrameScan::default());
        // A length prefix promising more bytes than exist.
        let mut bogus = vec![0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0];
        assert_eq!(scan_frames(&bogus).payloads.len(), 0);
        // Valid frame followed by garbage: prefix decodes, garbage dropped.
        let mut bytes = frame_header(b"payload").unwrap().to_vec();
        bytes.extend_from_slice(b"payload");
        let valid = bytes.len();
        bogus.truncate(3);
        bytes.extend_from_slice(&bogus);
        let scan = scan_frames(&bytes);
        assert_eq!(scan.payloads, vec![b"payload".to_vec()]);
        assert_eq!(scan.valid_bytes, valid);
    }

    #[test]
    fn crash_plan_is_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let a = CrashPlan::from_seed(seed, 96);
            let b = CrashPlan::from_seed(seed, 96);
            assert_eq!(a, b);
            assert!((1..96).contains(&a.crash_tick), "tick {}", a.crash_tick);
            let off = a.torn_offset(1000);
            assert!((1..1000).contains(&off), "offset {off}");
        }
        // Degenerate runs still produce a usable plan.
        let tiny = CrashPlan::from_seed(1, 1);
        assert_eq!(tiny.crash_tick, 1);
        assert_eq!(tiny.torn_offset(0), 0);
    }
}
