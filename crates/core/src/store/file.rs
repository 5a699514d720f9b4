//! File-backed store backend: framed WAL + atomic snapshot writes, tied
//! together by a generation number.
//!
//! `snapshot.bin` is two frames, the snapshot's generation (`u64` LE) and
//! its payload; `wal.log` opens with one frame holding the generation of
//! the snapshot its records extend. Compaction is two steps — rename the
//! new snapshot into place, then reset the log — and a kill between them
//! leaves a log one generation behind a snapshot that already holds every
//! record in it: load discards that log instead of replaying it twice.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::{frame_header, scan_frames, StateStore, StoreContents, FRAME_HEADER_BYTES};

pub(crate) const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// A frame holding one generation number.
const GENERATION_FRAME_BYTES: usize = FRAME_HEADER_BYTES + 8;
/// What `snapshot.bin` holds besides the snapshot payload.
const SNAPSHOT_OVERHEAD: u64 = (GENERATION_FRAME_BYTES + FRAME_HEADER_BYTES) as u64;

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

/// A generation number as the frame that opens `snapshot.bin` and `wal.log`.
fn generation_frame(generation: u64) -> io::Result<Vec<u8>> {
    let payload = generation.to_le_bytes();
    Ok([&frame_header(&payload)?[..], &payload].concat())
}

/// The generation a frame stream opens with, if its first frame is one.
fn leading_generation(frames: &[Vec<u8>]) -> Option<u64> {
    let first: [u8; 8] = frames.first()?.as_slice().try_into().ok()?;
    Some(u64::from_le_bytes(first))
}

/// The generation `file` opens with, read from its first frame alone.
fn read_generation(file: &mut File) -> io::Result<Option<u64>> {
    let mut head = Vec::with_capacity(GENERATION_FRAME_BYTES);
    file.seek(SeekFrom::Start(0))?;
    file.take(GENERATION_FRAME_BYTES as u64)
        .read_to_end(&mut head)?;
    Ok(leading_generation(&scan_frames(&head).payloads))
}

/// File-backed [`StateStore`]: `wal.log` holds framed records after its
/// generation frame, `snapshot.bin` holds the generation and the snapshot,
/// `snapshot.tmp` is the atomic-write staging file. Appends are flushed per
/// record so a kill between ticks loses nothing; a kill mid-write loses
/// only the torn tail.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    wal: File,
    /// Generation of the snapshot on disk; 0 before the first one.
    generation: u64,
    /// Whether `wal.log` extends that snapshot. False from a snapshot's
    /// rename until the log reset behind it lands, and for a stale log
    /// found at open until `load` resets it: an append never lands in a log
    /// that recovery would discard.
    wal_current: bool,
    wal_records: u64,
    /// Record bytes in the log, framing included; its generation frame is
    /// not counted.
    wal_bytes: u64,
    snapshot_bytes: u64,
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
        let (generation, snapshot_bytes) = match File::open(dir.join(SNAPSHOT_FILE)) {
            Ok(mut snapshot) => (
                read_generation(&mut snapshot)?.unwrap_or(0),
                snapshot.metadata()?.len().saturating_sub(SNAPSHOT_OVERHEAD),
            ),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, 0),
            Err(e) => return Err(e),
        };
        let wal_len = wal.metadata()?.len();
        let mut store = Self {
            dir,
            wal,
            generation,
            wal_current: false,
            wal_records: 0, // unknown until load(); counts appends otherwise
            wal_bytes: wal_len.saturating_sub(GENERATION_FRAME_BYTES as u64),
            snapshot_bytes,
            frame: Vec::new(),
        };
        if wal_len == 0 {
            store.reset_wal()?;
        } else {
            store.wal_current = read_generation(&mut store.wal)? == Some(generation);
        }
        Ok(store)
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Truncates the WAL's records to their first `len` bytes — the
    /// torn-write injector for the crash harness.
    pub fn truncate_wal_to(&mut self, len: u64) -> io::Result<()> {
        let keep = len.min(self.wal_bytes);
        self.wal.set_len(GENERATION_FRAME_BYTES as u64 + keep)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.wal_bytes = keep;
        Ok(())
    }

    /// Empties the log down to the generation frame of the snapshot on
    /// disk.
    fn reset_wal(&mut self) -> io::Result<()> {
        self.wal_current = false;
        self.wal.set_len(0)?;
        self.wal.write_all(&generation_frame(self.generation)?)?;
        self.wal.flush()?;
        self.wal_current = true;
        self.wal_records = 0;
        self.wal_bytes = 0;
        Ok(())
    }
}

impl StateStore for FileStore {
    fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if !self.wal_current {
            return Err(io::Error::other(format!(
                "{WAL_FILE} is behind snapshot generation {}: its reset did not land",
                self.generation
            )));
        }
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
        let generation = self.generation + 1;
        let header = frame_header(snapshot)?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            // Nobody reads the staging file before the rename, so the frames
            // need not land in one write: the payload goes out uncopied.
            let mut f = File::create(&tmp)?;
            f.write_all(&generation_frame(generation)?)?;
            f.write_all(&header)?;
            f.write_all(snapshot)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Make the rename itself durable: without a directory sync, a crash
        // after the rename can lose the new directory entry and resurrect
        // the pre-snapshot state even though the payload was fsynced.
        sync_dir(&self.dir);
        self.generation = generation;
        self.snapshot_bytes = snapshot.len() as u64;
        // The snapshot holds every record the log does. Until the reset
        // lands the log is a generation behind: load discards it, and
        // appends refuse it.
        self.reset_wal()
    }

    fn load(&mut self) -> io::Result<StoreContents> {
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let (generation, snapshot) = match fs::read(&snap_path) {
            Ok(bytes) => {
                let scan = scan_frames(&bytes);
                let generation = leading_generation(&scan.payloads);
                match (generation, <[_; 2]>::try_from(scan.payloads)) {
                    (Some(g), Ok([_, snapshot])) if scan.valid_bytes == bytes.len() => {
                        (g, Some(snapshot))
                    }
                    // Snapshot writes are atomic (tmp + rename), so a bad
                    // snapshot is real corruption, not a torn write.
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("corrupt snapshot at {}", snap_path.display()),
                        ))
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, None),
            Err(e) => return Err(e),
        };
        self.generation = generation;
        self.snapshot_bytes = snapshot.as_ref().map_or(0, |s| s.len() as u64);

        let mut wal_bytes = Vec::new();
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.read_to_end(&mut wal_bytes)?;
        let scan = scan_frames(&wal_bytes);
        let mut records = scan.payloads;
        match leading_generation(&records) {
            Some(g) if g > generation => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{WAL_FILE} extends snapshot generation {g}, the snapshot is {generation}"
                    ),
                ))
            }
            Some(g) if g == generation => {}
            _ => {
                // Behind the snapshot (a kill between its rename and the log
                // reset) or headless (a kill inside the reset): every record
                // the log holds is already in the snapshot.
                self.reset_wal()?;
                return Ok(StoreContents {
                    snapshot,
                    ..StoreContents::default()
                });
            }
        }
        let truncated = (wal_bytes.len() - scan.valid_bytes) as u64;
        if truncated > 0 {
            // Drop the torn tail so future appends extend a valid log.
            self.wal.set_len(scan.valid_bytes as u64)?;
        }
        self.wal.seek(SeekFrom::End(0))?;
        records.remove(0);
        self.wal_current = true;
        self.wal_records = records.len() as u64;
        self.wal_bytes = (scan.valid_bytes - GENERATION_FRAME_BYTES) as u64;
        Ok(StoreContents {
            snapshot,
            records,
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
    fn file_store_keeps_one_snapshot_generation() {
        let dir = scratch_dir("one-generation");
        let mut s = FileStore::open(&dir).unwrap();
        for g in 1..=5u8 {
            s.append(&[g]).unwrap();
            s.write_snapshot(&[g; 3]).unwrap();
        }
        // Restore reads only the latest snapshot, so that is all there is:
        // the fifth generation, and a log stamped with it.
        assert_eq!(s.snapshot_generations(), 1);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            2,
            "one snapshot, one log"
        );
        for file in [SNAPSHOT_FILE, WAL_FILE] {
            let mut f = File::open(dir.join(file)).unwrap();
            assert_eq!(read_generation(&mut f).unwrap(), Some(5), "{file}");
        }
        let c = s.load().unwrap();
        assert_eq!((c.snapshot, c.records.len()), (Some(vec![5; 3]), 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_kill_inside_compaction_never_replays_what_the_snapshot_holds() {
        let dir = scratch_dir("compaction-kill");
        let wal_path = dir.join(WAL_FILE);
        let mut s = FileStore::open(&dir).unwrap();
        s.write_snapshot(b"snapshot A").unwrap();
        s.append(b"rec-a").unwrap();
        // Killed after the rename, before the log reset: the log still
        // holds what the new snapshot already does.
        let before = fs::read(&wal_path).unwrap();
        s.write_snapshot(b"snapshot B").unwrap();
        drop(s);
        fs::write(&wal_path, &before).unwrap();

        let mut s = FileStore::open(&dir).unwrap();
        assert!(
            s.append(b"lost").is_err(),
            "an append must not land in a log recovery discards"
        );
        let c = s.load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"snapshot B"[..]));
        assert!(c.records.is_empty(), "replayed {:?}", c.records);
        assert_eq!(c.truncated_bytes, 0);
        // The load reset the log: appends extend snapshot B again.
        s.append(b"rec-b").unwrap();
        assert_eq!(s.load().unwrap().records, vec![b"rec-b".to_vec()]);

        // Killed inside the reset, the log emptied and not yet stamped.
        s.write_snapshot(b"snapshot C").unwrap();
        drop(s);
        fs::write(&wal_path, b"").unwrap();
        let c = FileStore::open(&dir).unwrap().load().unwrap();
        assert_eq!(c.snapshot.as_deref(), Some(&b"snapshot C"[..]));
        assert!(c.records.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_ahead_of_its_snapshot_is_corrupt() {
        let dir = scratch_dir("log-ahead");
        let mut s = FileStore::open(&dir).unwrap();
        s.write_snapshot(b"snapshot").unwrap();
        drop(s);
        // The snapshot's directory entry was lost after its log reset.
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        let err = FileStore::open(&dir).unwrap().load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).ok();
    }
}
