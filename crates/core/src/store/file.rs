//! File-backed store backend: framed WAL + atomic snapshot writes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::{frame_header, scan_frames, StateStore, StoreContents, FRAME_HEADER_BYTES};

const WAL_FILE: &str = "wal.log";
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Flushes directory metadata so a just-renamed entry in `dir` survives
/// power loss. `rename` is atomic with respect to concurrent readers, but
/// the *directory entry* pointing at the new snapshot is ordinary metadata:
/// a crash after the rename and before the directory block reaches disk can
/// bring the store back up with the old (or no) snapshot file. Fail-open,
/// per the control plane's persistence convention: a sync failure is
/// counted (`keebo.store.dir_sync_failures`) but never fails the write —
/// the data path already fsynced, and the next snapshot retries the
/// metadata flush.
pub(crate) fn sync_dir(dir: &Path) {
    if File::open(dir).and_then(|d| d.sync_all()).is_err() {
        keebo_obs::global()
            .counter("keebo.store.dir_sync_failures")
            .inc();
    }
}

/// File-backed [`StateStore`]: `wal.log` holds framed records, `snapshot.bin`
/// holds one framed snapshot, `snapshot.tmp` is the atomic-write staging
/// file. Appends are flushed per record so a kill between ticks loses
/// nothing; a kill mid-write loses only the torn tail. With snapshot
/// retention enabled, superseded snapshots rotate to
/// `snapshot.old.1.bin` (newest) … `snapshot.old.N.bin` (oldest).
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    wal: File,
    wal_records: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    retention: u32,
    /// The WAL frame being appended, reused across appends: header and
    /// payload must reach the log in one write.
    frame: Vec<u8>,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(dir.join(WAL_FILE))?;
        let wal_bytes = wal.metadata()?.len();
        let snapshot_bytes = fs::metadata(dir.join(SNAPSHOT_FILE))
            .map(|m| m.len().saturating_sub(FRAME_HEADER_BYTES as u64))
            .unwrap_or(0);
        Ok(Self {
            dir,
            wal,
            wal_records: 0, // unknown until load(); counts appends otherwise
            wal_bytes,
            snapshot_bytes,
            retention: 0,
            frame: Vec::new(),
        })
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Truncates the WAL file to `len` bytes — the torn-write injector for
    /// the crash harness.
    pub fn truncate_wal_to(&mut self, len: u64) -> io::Result<()> {
        let keep = len.min(self.wal_bytes);
        self.wal.set_len(keep)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.wal_bytes = keep;
        Ok(())
    }

    fn old_snapshot_path(&self, generation: u32) -> PathBuf {
        self.dir.join(format!("snapshot.old.{generation}.bin"))
    }

    /// Retains the current snapshot as generation 1 of the retained chain
    /// and prunes generations beyond the retention limit. The current slot
    /// is linked (or copied), never renamed away: `snapshot.bin` must only
    /// ever be replaced by the atomic tmp rename in `write_snapshot`, or a
    /// kill between the two would leave a store with every byte on disk and
    /// no snapshot to restore from. Best-effort: retention is operator
    /// convenience, never correctness, so any failure is counted
    /// (`keebo.store.retention_errors`) and the snapshot write proceeds.
    fn rotate_retained(&self) {
        let mut failed = false;
        // Prune anything at or beyond the retention horizon (also clears
        // leftovers after retention was tightened).
        let mut gen = self.retention.max(1);
        loop {
            match fs::remove_file(self.old_snapshot_path(gen)) {
                Ok(()) => gen += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if self.retention > 0 {
            // Shift old.N-1 → old.N … old.1 → old.2, then retain current
            // as old.1 (a second name for the same file where the
            // filesystem links, a copy where it does not).
            for g in (1..self.retention).rev() {
                let from = self.old_snapshot_path(g);
                if let Err(e) = fs::rename(&from, self.old_snapshot_path(g + 1)) {
                    if e.kind() != io::ErrorKind::NotFound {
                        failed = true;
                    }
                }
            }
            let current = self.dir.join(SNAPSHOT_FILE);
            let retained = self.old_snapshot_path(1);
            if current.exists()
                && fs::hard_link(&current, &retained).is_err()
                && fs::copy(&current, &retained).is_err()
            {
                failed = true;
            }
        }
        if failed {
            keebo_obs::global()
                .counter("keebo.store.retention_errors")
                .inc();
        }
    }
}

impl StateStore for FileStore {
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let header = frame_header(payload)?;
        self.frame.clear();
        self.frame.extend_from_slice(&header);
        self.frame.extend_from_slice(payload);
        self.wal.write_all(&self.frame)?;
        self.wal.flush()?;
        self.wal_records += 1;
        self.wal_bytes += self.frame.len() as u64;
        Ok(())
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        let header = frame_header(snapshot)?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            // Nobody reads the staging file before the rename, so the frame
            // need not land in one write: the payload goes out uncopied.
            let mut f = File::create(&tmp)?;
            f.write_all(&header)?;
            f.write_all(snapshot)?;
            f.sync_all()?;
        }
        self.rotate_retained();
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Make the rename itself durable: without a directory sync, a crash
        // after the rename can lose the new directory entry and resurrect
        // the pre-snapshot state even though the payload was fsynced.
        sync_dir(&self.dir);
        // Snapshot is durable; the log it subsumes can go.
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.wal_records = 0;
        self.wal_bytes = 0;
        self.snapshot_bytes = snapshot.len() as u64;
        Ok(())
    }

    fn load(&mut self) -> io::Result<StoreContents> {
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let snapshot = match fs::read(&snap_path) {
            Ok(bytes) => {
                let scan = scan_frames(&bytes);
                if scan.payloads.len() != 1 || scan.valid_bytes != bytes.len() {
                    // Snapshot writes are atomic (tmp + rename), so a bad
                    // snapshot is real corruption, not a torn write.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt snapshot at {}", snap_path.display()),
                    ));
                }
                scan.payloads.into_iter().next()
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        self.snapshot_bytes = snapshot.as_ref().map_or(0, |s| s.len() as u64);

        let mut wal_bytes = Vec::new();
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.read_to_end(&mut wal_bytes)?;
        let scan = scan_frames(&wal_bytes);
        let truncated = (wal_bytes.len() - scan.valid_bytes) as u64;
        if truncated > 0 {
            // Drop the torn tail so future appends extend a valid log.
            self.wal.set_len(scan.valid_bytes as u64)?;
        }
        self.wal.seek(SeekFrom::End(0))?;
        self.wal_records = scan.payloads.len() as u64;
        self.wal_bytes = scan.valid_bytes as u64;
        Ok(StoreContents {
            snapshot,
            records: scan.payloads,
            truncated_bytes: truncated,
        })
    }

    fn wal_records(&self) -> u64 {
        self.wal_records
    }

    fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    fn set_snapshot_retention(&mut self, generations: u32) {
        self.retention = generations;
    }

    fn snapshot_generations(&self) -> u64 {
        let mut count = u64::from(self.dir.join(SNAPSHOT_FILE).exists());
        let mut gen = 1u32;
        while self.old_snapshot_path(gen).exists() {
            count += 1;
            gen += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::scratch_dir;
    use super::*;

    #[test]
    fn file_store_round_trips_across_reopen() {
        let dir = scratch_dir("roundtrip");
        {
            let mut s = FileStore::open(&dir).unwrap();
            s.write_snapshot(b"snapshot-payload").unwrap();
            s.append(b"rec-a").unwrap();
            s.append(b"rec-b").unwrap();
        }
        let mut s = FileStore::open(&dir).unwrap();
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"snapshot-payload"[..]));
        assert_eq!(c.records, vec![b"rec-a".to_vec(), b"rec-b".to_vec()]);
        assert_eq!(c.truncated_bytes, 0);
        assert_eq!(s.snapshot_bytes(), 16);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_truncates_torn_tail_and_keeps_appending() {
        let dir = scratch_dir("torn");
        let cut;
        {
            let mut s = FileStore::open(&dir).unwrap();
            s.append(b"first-record").unwrap();
            s.append(b"second-record").unwrap();
            // Tear mid-way through the second record's frame.
            cut = s.wal_bytes() - 5;
            s.truncate_wal_to(cut).unwrap();
        }
        let mut s = FileStore::open(&dir).unwrap();
        let c = s.load().unwrap();
        assert_eq!(c.records, vec![b"first-record".to_vec()]);
        assert!(c.truncated_bytes > 0);
        // The log stays usable after truncation.
        s.append(b"post-crash").unwrap();
        let c = s.load().unwrap();
        assert_eq!(
            c.records,
            vec![b"first-record".to_vec(), b"post-crash".to_vec()]
        );
        assert_eq!(c.truncated_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_write_syncs_directory_without_failing_open() {
        // Success path: a snapshot write on a real directory performs the
        // directory sync cleanly — no fail-open counter tick — and the
        // renamed entry is immediately visible to a reopened store.
        let dir = scratch_dir("dirsync");
        let failures = keebo_obs::global().counter("keebo.store.dir_sync_failures");
        let before = failures.get();
        {
            let mut s = FileStore::open(&dir).unwrap();
            s.write_snapshot(b"synced snapshot").unwrap();
        }
        assert_eq!(
            failures.get(),
            before,
            "healthy directory sync must not count as a failure"
        );
        let mut s = FileStore::open(&dir).unwrap();
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"synced snapshot"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_sync_failure_is_counted_not_fatal() {
        // Fail-open path: syncing a directory that cannot be opened ticks
        // the counter instead of erroring — mirroring the PR 6 convention
        // that persistence problems degrade observability-first.
        let failures = keebo_obs::global().counter("keebo.store.dir_sync_failures");
        let before = failures.get();
        sync_dir(Path::new("/nonexistent/kwo-store-dir-sync-test"));
        assert_eq!(failures.get(), before + 1);
    }

    #[test]
    fn file_store_detects_corrupt_snapshot() {
        let dir = scratch_dir("corrupt-snap");
        {
            let mut s = FileStore::open(&dir).unwrap();
            s.write_snapshot(b"good snapshot bytes").unwrap();
        }
        // Flip a payload byte: CRC must catch it.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut s = FileStore::open(&dir).unwrap();
        assert!(s.load().is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_rotates_retained_snapshot_generations() {
        let dir = scratch_dir("retain");
        let mut s = FileStore::open(&dir).unwrap();
        s.set_snapshot_retention(2);
        for g in 0..5u8 {
            s.write_snapshot(format!("gen-{g}").as_bytes()).unwrap();
        }
        // Current (gen-4) + retained gen-3 and gen-2.
        assert_eq!(s.snapshot_generations(), 3);
        let read = |p: PathBuf| scan_frames(&fs::read(p).unwrap()).payloads.remove(0);
        assert_eq!(read(dir.join(SNAPSHOT_FILE)), b"gen-4".to_vec());
        assert_eq!(read(s.old_snapshot_path(1)), b"gen-3".to_vec());
        assert_eq!(read(s.old_snapshot_path(2)), b"gen-2".to_vec());
        assert!(!s.old_snapshot_path(3).exists());

        // Tightened retention prunes the extra generation at the next write.
        s.set_snapshot_retention(1);
        s.write_snapshot(b"gen-5").unwrap();
        assert_eq!(s.snapshot_generations(), 2);
        assert_eq!(read(s.old_snapshot_path(1)), b"gen-4".to_vec());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_never_removes_the_current_snapshot() {
        // A kill between rotation and the tmp rename must find the store
        // as it was: the WAL only holds records since this snapshot.
        let dir = scratch_dir("retain-kill");
        let mut s = FileStore::open(&dir).unwrap();
        s.write_snapshot(b"snapshot A").unwrap();
        s.set_snapshot_retention(1);
        s.rotate_retained();
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"snapshot A"[..]));
        let retained = fs::read(s.old_snapshot_path(1)).unwrap();
        assert_eq!(
            scan_frames(&retained).payloads,
            vec![b"snapshot A".to_vec()]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_rotation_failure_is_counted_not_fatal() {
        let dir = scratch_dir("retain-fail");
        let mut s = FileStore::open(&dir).unwrap();
        s.set_snapshot_retention(1);
        s.write_snapshot(b"first").unwrap();
        // Block the rotation target with a non-empty directory: renaming a
        // file over it must fail, which retention absorbs fail-open.
        let blocker = s.old_snapshot_path(1);
        fs::create_dir_all(blocker.join("occupied")).unwrap();
        let errors = keebo_obs::global().counter("keebo.store.retention_errors");
        let before = errors.get();
        s.write_snapshot(b"second").unwrap();
        assert_eq!(errors.get(), before + 1);
        // The snapshot write itself still landed.
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"second"[..]));
        fs::remove_dir_all(&dir).ok();
    }
}
