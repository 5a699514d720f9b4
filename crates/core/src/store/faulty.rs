//! Seeded fault injection in front of any store medium.
//!
//! Real deployments of the control plane would keep durable state in a
//! remote service (the memory/redis/dynamodb spread of typical state
//! crates), which brings a failure mode a local medium does not have:
//! transient request failures. [`FaultyStore`] simulates them
//! deterministically in front of a [`super::MemStore`] or a
//! [`super::FileStore`]: a [`StoreFaultPlan`] derives every fault from
//! `(plan seed, operation kind, operation sequence number)` via splitmix64,
//! so a crash drill that hits an injected append failure hits exactly the
//! same failure on every run. Everything else — storage and its counters —
//! is the medium's.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::{StateStore, StoreContents};
use cdw_sim::mix::splitmix64;

/// Operation-kind salts for fault derivation — distinct streams per verb so
/// e.g. a 100% append-fault plan leaves snapshot writes untouched.
const KIND_APPEND: u64 = 0x41;
const KIND_SNAPSHOT: u64 = 0x53;
const KIND_LOAD: u64 = 0x4C;

const PPM_SCALE: u64 = 1_000_000;

/// Seeded fault-injection plan for a [`FaultyStore`]: per-operation
/// failure rates in parts-per-million. Everything derives from `seed`, so a
/// plan is a complete, reproducible description of the store's behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFaultPlan {
    /// Stream seed for fault sampling.
    pub seed: u64,
    /// Probability an `append` fails (ppm). The record is NOT stored.
    pub append_error_ppm: u32,
    /// Probability a `write_snapshot` fails (ppm). Nothing is replaced.
    pub snapshot_error_ppm: u32,
    /// Probability a `load` times out (ppm) — `io::ErrorKind::TimedOut`.
    pub read_timeout_ppm: u32,
}

impl StoreFaultPlan {
    /// A healthy remote: no faults.
    pub fn none() -> Self {
        Self {
            seed: 0,
            append_error_ppm: 0,
            snapshot_error_ppm: 0,
            read_timeout_ppm: 0,
        }
    }

    /// Decodes a plan from arbitrary genome bytes. Total and deterministic:
    /// any byte string (including empty) yields a valid plan — the verify
    /// fuzzer drives this directly. Rates are capped so fuzzed stores stay
    /// mostly operational: appends ≤12%, snapshots ≤50%, reads ≤20%.
    pub fn from_genome(bytes: &[u8]) -> Self {
        let mut padded = [0u8; 20];
        for (dst, src) in padded.iter_mut().zip(bytes) {
            *dst = *src;
        }
        let le_u32 = |at: usize| {
            u32::from_le_bytes([padded[at], padded[at + 1], padded[at + 2], padded[at + 3]])
        };
        Self {
            seed: u64::from_le_bytes([
                padded[0], padded[1], padded[2], padded[3], padded[4], padded[5], padded[6],
                padded[7],
            ]),
            append_error_ppm: le_u32(8) % 120_001,
            snapshot_error_ppm: le_u32(12) % 500_001,
            read_timeout_ppm: le_u32(16) % 200_001,
        }
    }

    /// One deterministic sample for operation `op_seq` of `kind`.
    fn roll(&self, kind: u64, op_seq: u64) -> u64 {
        splitmix64(
            self.seed
                .wrapping_add(kind.wrapping_mul(0x9E6D_29AA_C2A3_3F25))
                .wrapping_add(op_seq.wrapping_mul(0xA24B_AED4_963E_E407)),
        )
    }

    fn hits(&self, ppm: u32, kind: u64, op_seq: u64) -> bool {
        ppm > 0 && self.roll(kind, op_seq) % PPM_SCALE < u64::from(ppm)
    }
}

/// Fault-injecting decorator over any [`StateStore`]: every `append`,
/// `write_snapshot` and `load` first consults the plan, and an injected
/// failure never reaches the medium — a failed append stores nothing, a
/// failed snapshot write replaces and compacts nothing. `Clone` shares the
/// operation counter (the simulated service outlives any one handle on it),
/// so over a [`super::MemStore`] a crash drill's surviving handle continues
/// the dead control plane's fault stream.
#[derive(Debug, Clone)]
pub struct FaultyStore<S> {
    inner: S,
    plan: StoreFaultPlan,
    /// Operations begun so far, of any kind, across every clone.
    ops: Arc<AtomicU64>,
}

impl<S: StateStore> FaultyStore<S> {
    pub fn new(inner: S, plan: StoreFaultPlan) -> Self {
        Self {
            inner,
            plan,
            ops: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The medium behind the decorator.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Counts one op and returns whether the plan injects a fault for it.
    fn begin_op(&self, kind: u64, ppm: u32) -> bool {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        self.plan.hits(ppm, kind, op)
    }
}

impl<S: StateStore> StateStore for FaultyStore<S> {
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.begin_op(KIND_APPEND, self.plan.append_error_ppm) {
            return Err(io::Error::other("injected remote append failure"));
        }
        self.inner.append(payload)
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        if self.begin_op(KIND_SNAPSHOT, self.plan.snapshot_error_ppm) {
            return Err(io::Error::other("injected remote snapshot write failure"));
        }
        self.inner.write_snapshot(snapshot)
    }

    fn load(&mut self) -> io::Result<StoreContents> {
        if self.begin_op(KIND_LOAD, self.plan.read_timeout_ppm) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "injected remote read timeout",
            ));
        }
        self.inner.load()
    }

    fn wal_records(&self) -> u64 {
        self.inner.wal_records()
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }

    fn snapshot_bytes(&self) -> u64 {
        self.inner.snapshot_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn injected_faults_are_deterministic_per_op() {
        let plan = StoreFaultPlan {
            seed: 42,
            append_error_ppm: 300_000,
            snapshot_error_ppm: 0,
            read_timeout_ppm: 0,
        };
        let drive = || {
            let mut s = FaultyStore::new(MemStore::new(), plan);
            (0..64)
                .map(|i| s.append(format!("r{i}").as_bytes()).is_err())
                .collect::<Vec<_>>()
        };
        let a = drive();
        assert_eq!(a, drive(), "fault schedule must be reproducible");
        // Clones share the op counter: two handles taking turns see the
        // schedule one handle would.
        let first = FaultyStore::new(MemStore::new(), plan);
        let mut handles = [first.clone(), first];
        let alternating: Vec<bool> = (0..64)
            .map(|i| handles[i % 2].append(format!("r{i}").as_bytes()).is_err())
            .collect();
        assert_eq!(a, alternating, "the op counter must survive a clone");
        let failures = a.iter().filter(|&&f| f).count();
        assert!(
            (5..60).contains(&failures),
            "~30% fault rate expected, got {failures}/64"
        );
    }

    #[test]
    fn each_fault_kind_targets_only_its_verb() {
        let mut s = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan {
                seed: 7,
                append_error_ppm: 1_000_000,
                snapshot_error_ppm: 0,
                read_timeout_ppm: 0,
            },
        );
        assert!(s.append(b"doomed").is_err());
        assert!(s.write_snapshot(b"fine").is_ok());
        assert!(s.load().is_ok());

        let mut s = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan {
                seed: 7,
                append_error_ppm: 0,
                snapshot_error_ppm: 1_000_000,
                read_timeout_ppm: 0,
            },
        );
        assert!(s.append(b"fine").is_ok());
        assert!(s.write_snapshot(b"doomed").is_err());
        // A failed snapshot write replaces nothing and compacts nothing.
        let c = s.load().unwrap();
        assert!(c.snapshot.is_none());
        assert_eq!(c.records.len(), 1);

        let mut s = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan {
                seed: 7,
                append_error_ppm: 0,
                snapshot_error_ppm: 0,
                read_timeout_ppm: 1_000_000,
            },
        );
        let err = s.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn failed_append_stores_nothing() {
        let plan = StoreFaultPlan {
            seed: 3,
            append_error_ppm: 500_000,
            snapshot_error_ppm: 0,
            read_timeout_ppm: 0,
        };
        let mut s = FaultyStore::new(MemStore::new(), plan);
        let mut stored = Vec::new();
        for i in 0..32 {
            let rec = format!("rec-{i}");
            if s.append(rec.as_bytes()).is_ok() {
                stored.push(rec.into_bytes());
            }
        }
        assert_eq!(s.load().unwrap().records, stored);
    }

    #[test]
    fn fault_plan_genome_decode_is_total_and_deterministic() {
        assert_eq!(
            StoreFaultPlan::from_genome(&[]),
            StoreFaultPlan {
                seed: 0,
                append_error_ppm: 0,
                snapshot_error_ppm: 0,
                read_timeout_ppm: 0,
            }
        );
        let genome: Vec<u8> = (0..64u8).collect();
        let a = StoreFaultPlan::from_genome(&genome);
        assert_eq!(a, StoreFaultPlan::from_genome(&genome));
        // Rate caps hold whatever the bytes say.
        for len in 0..40 {
            let p = StoreFaultPlan::from_genome(&vec![0xFF; len]);
            assert!(p.append_error_ppm <= 120_000);
            assert!(p.snapshot_error_ppm <= 500_000);
            assert!(p.read_timeout_ppm <= 200_000);
        }
    }
}
