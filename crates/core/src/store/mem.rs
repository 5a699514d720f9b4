//! In-memory store backend for tests and crash drills.

use std::io;
use std::sync::{Arc, Mutex, PoisonError};

use super::{StateStore, StoreContents, FRAME_HEADER_BYTES};

#[derive(Debug, Default)]
struct MemInner {
    snapshot: Option<Vec<u8>>,
    records: Vec<Vec<u8>>,
}

/// In-memory [`StateStore`]. `Clone` shares the backing storage: the test
/// harness clones a handle, hands one copy to the orchestrator, drops the
/// orchestrator to simulate a crash, and restores from the survivor.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops the most recent WAL record, returning its size — simulates a
    /// torn write for stores that have no file to truncate.
    pub fn drop_last_record(&self) -> u64 {
        let mut inner = self.lock();
        inner
            .records
            .pop()
            .map_or(0, |r| r.len() as u64 + FRAME_HEADER_BYTES as u64)
    }
}

impl StateStore for MemStore {
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.lock().records.push(payload.to_vec());
        Ok(())
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        // One lock covers both: no kill can land between the new snapshot
        // and the truncation of the log it holds.
        let mut inner = self.lock();
        inner.snapshot = Some(snapshot.to_vec());
        inner.records.clear();
        Ok(())
    }

    fn load(&mut self) -> io::Result<StoreContents> {
        let inner = self.lock();
        Ok(StoreContents {
            snapshot: inner.snapshot.clone(),
            records: inner.records.clone(),
            truncated_bytes: 0,
        })
    }

    fn wal_records(&self) -> u64 {
        self.lock().records.len() as u64
    }

    fn wal_bytes(&self) -> u64 {
        self.lock()
            .records
            .iter()
            .map(|r| r.len() as u64 + FRAME_HEADER_BYTES as u64)
            .sum()
    }

    fn snapshot_bytes(&self) -> u64 {
        self.lock().snapshot.as_ref().map_or(0, |s| s.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_round_trips_and_compacts() {
        let mut s = MemStore::new();
        s.append(b"one").unwrap();
        s.append(b"two").unwrap();
        assert_eq!(s.wal_records(), 2);
        let c = s.load().unwrap();
        assert_eq!(c.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(c.snapshot.is_none());

        s.write_snapshot(b"snap").unwrap();
        s.append(b"three").unwrap();
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"snap"[..]));
        assert_eq!(c.records, vec![b"three".to_vec()]);
        assert_eq!(c.truncated_bytes, 0);
    }

    #[test]
    fn mem_store_retains_last_n_snapshot_generations() {
        // Restore reads only the latest snapshot, so N is one: each write
        // replaces the only generation.
        let mut s = MemStore::new();
        assert_eq!(s.snapshot_generations(), 0);
        s.write_snapshot(b"g0").unwrap();
        assert_eq!(s.snapshot_generations(), 1);
        s.append(b"after-g0").unwrap();
        s.write_snapshot(b"g1").unwrap();
        s.write_snapshot(b"g2").unwrap();
        assert_eq!(s.snapshot_generations(), 1);
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"g2"[..]));
        assert!(c.records.is_empty());
    }

    #[test]
    fn mem_store_clone_shares_backing() {
        let mut a = MemStore::new();
        let mut b = a.clone();
        a.append(b"x").unwrap();
        assert_eq!(b.load().unwrap().records, vec![b"x".to_vec()]);
    }

    #[test]
    fn drop_last_record_returns_the_framed_size() {
        let mut s = MemStore::new();
        assert_eq!(s.drop_last_record(), 0);
        s.append(b"keep").unwrap();
        s.append(b"lose-me").unwrap();
        let dropped = s.drop_last_record();
        assert_eq!(dropped, b"lose-me".len() as u64 + FRAME_HEADER_BYTES as u64);
        assert_eq!(s.load().unwrap().records, vec![b"keep".to_vec()]);
        assert_eq!(s.wal_records(), 1);
    }
}
