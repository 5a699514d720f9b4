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
//!   every tick since the last snapshot. Stores optionally retain the last
//!   N superseded snapshot generations for operator rollback.
//! * [`MemStore`] — in-memory store for tests and fleet runs. Cloning shares
//!   the backing storage, so a harness can keep a handle across an
//!   orchestrator "crash" (drop).
//! * [`FileStore`] — file-backed store with length+CRC32-framed records,
//!   atomic (tmp file + rename) snapshot writes, and torn-tail truncation on
//!   open: a record half-written at kill time is dropped, never replayed.
//! * [`FaultyStore`] — a decorator over either medium that simulates a
//!   remote service (the memory/redis/dynamodb spread of a real deployment):
//!   per-operation service latency and seeded fault injection via
//!   [`StoreFaultPlan`] — append errors, snapshot write failures, and read
//!   timeouts, all deterministic so the crash-drill matrix is reproducible.
//!   It owns the plan and the op counter and forwards everything else.
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

use crate::drng::splitmix64;
use std::io;

mod faulty;
mod file;
mod mem;

pub use faulty::{FaultyStore, StoreFaultPlan};
pub use file::FileStore;
pub use mem::MemStore;

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Hand-rolled bitwise loop —
/// record frames are small and this avoids a table or a dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
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

    /// Sets how many *superseded* snapshot generations to keep after each
    /// compaction (0 = only the current snapshot, the default). Retention
    /// is best-effort housekeeping: it never fails a snapshot write.
    fn set_snapshot_retention(&mut self, generations: u32) {
        let _ = generations;
    }

    /// Snapshot payloads currently held (current + retained generations).
    fn snapshot_generations(&self) -> u64 {
        u64::from(self.snapshot_bytes() > 0)
    }
}

pub(crate) const FRAME_HEADER_BYTES: usize = 8; // u32 length + u32 crc32

pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
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
        let mut sm = seed ^ 0xC2A5_9F5C_7E1D_3B41;
        let span = total_ticks.saturating_sub(2).max(1);
        let crash_tick = 1 + splitmix64(&mut sm) % span;
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
        let mut sm = self.seed ^ 0x1B56_C4E9_9C30_A2F7;
        splitmix64(&mut sm) % (wal_len - 1) + 1
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

    #[test]
    fn scan_frames_is_total_on_arbitrary_bytes() {
        assert_eq!(scan_frames(&[]), FrameScan::default());
        // A length prefix promising more bytes than exist.
        let mut bogus = vec![0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0];
        assert_eq!(scan_frames(&bogus).payloads.len(), 0);
        // Valid frame followed by garbage: prefix decodes, garbage dropped.
        let mut bytes = encode_frame(b"payload");
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
