//! The append-only budget journal: segmented WAL, group fsync, recovery.
//!
//! ## Layout
//!
//! A journal is a directory of segment files `wal-<seq:08>.seg`, each
//! starting with an 8-byte magic (`SJWAL01\n`) followed by framed records
//! (see [`crate::record`]). Appends go to the highest-numbered segment;
//! when it would exceed [`WalConfig::segment_bytes`] the writer seals it
//! (final fsync) and opens the successor.
//!
//! ## Group commit
//!
//! [`BudgetWal::append`] writes the frame under a short write lock, then
//! joins the *sync cohort*: the first appender through the sync lock
//! fsyncs once for every record written before it grabbed the lock;
//! followers observe `synced_seq >= their_seq` and return without
//! touching the disk. Under concurrency this batches many records per
//! `fdatasync` while preserving the durability contract — **no append
//! returns `Ok` before its record is on stable storage** (under
//! [`SyncPolicy::Group`]/[`SyncPolicy::Always`]).
//!
//! ## Recovery
//!
//! [`BudgetWal::open`] replays every segment in order, CRC-checking each
//! record. A torn tail — partial frame, bad CRC, or undecodable payload —
//! is legal only in the **final** segment (that is what a crash leaves
//! behind); it is truncated at the last valid record and appends resume
//! there. The same damage in an earlier segment means bit rot, not a
//! crash, and recovery refuses with [`WalError::Corrupt`] rather than
//! silently dropping spends.
//!
//! ## Fail-stop
//!
//! Any append/fsync failure (real or injected) permanently breaks the
//! handle: every later call returns [`WalError::Broken`]. A half-written
//! frame followed by more appends would interleave garbage into the log;
//! fail-stop keeps the on-disk image exactly "a prefix of history, maybe
//! with one torn tail", which is the shape recovery proves itself against.

use crate::crc::crc32;
use crate::fault::{FaultKind, FaultPlan};
use crate::record::{decode_payload, encode_frame, MAX_PAYLOAD};
use starj_telemetry::{Settlement, SettlementKind, TenantTotals};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SJWAL01\n";

/// When to force journal bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every append fsyncs before returning, joining a group-commit cohort
    /// so concurrent appends share one `fdatasync`. The default, and the
    /// only policy (with [`SyncPolicy::Always`]) under which the
    /// write-ahead guarantee covers power loss.
    Group,
    /// Every append issues its own fsync — strictest, no batching. Useful
    /// for measuring what group commit saves.
    Always,
    /// Never fsync (OS page cache only). A kill−9 is still safe (the
    /// kernel has the bytes); power loss can lose acknowledged spends.
    /// For tests and benches.
    Never,
}

/// Journal location and tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Fsync policy; see [`SyncPolicy`].
    pub sync: SyncPolicy,
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes. Bounds torn-tail scan time and the unit of future snapshot
    /// compaction.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Defaults (group fsync, 4 MiB segments) at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        WalConfig { dir: dir.into(), sync: SyncPolicy::Group, segment_bytes: 4 << 20 }
    }
}

/// Why a journal operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// An OS-level IO failure (message retained; the handle is now broken).
    Io(String),
    /// Recovery found damage *before* the final segment's tail — torn
    /// tails are what crashes leave, mid-history damage is bit rot and is
    /// never silently dropped.
    Corrupt {
        /// Segment sequence number containing the damage.
        segment: u64,
        /// Byte offset of the first bad record.
        offset: u64,
    },
    /// An injected crash point fired: the torn prefix is on disk and the
    /// handle is dead, exactly as if the process had been killed mid-write.
    Crashed,
    /// A previous failure already broke this handle; the journal refuses
    /// further appends until the process restarts and recovery runs.
    Broken,
    /// The record's payload would exceed [`MAX_PAYLOAD`] (a tenant id over
    /// [`crate::record::MAX_TENANT_BYTES`]). Nothing was written and the
    /// handle stays usable.
    Oversize {
        /// The payload size the record would have had.
        bytes: usize,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "journal IO error: {msg}"),
            WalError::Corrupt { segment, offset } => write!(
                f,
                "journal corrupt: segment {segment} damaged at byte {offset} \
                 (not a torn tail; refusing to drop recorded spends)"
            ),
            WalError::Crashed => write!(f, "journal crash point injected; handle is dead"),
            WalError::Broken => {
                write!(f, "journal handle broken by an earlier failure; restart to recover")
            }
            WalError::Oversize { bytes } => {
                write!(f, "journal record of {bytes} bytes exceeds the {MAX_PAYLOAD}-byte limit")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// What [`BudgetWal::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recovery {
    /// Per-tenant totals of every replayed record, folded in journal order
    /// (sorted for deterministic iteration). A recovered ledger is the
    /// committed `(ε, δ)`: reserves and refunds are transient, and counting
    /// commits alone is what makes recovery *never under-charge*.
    pub tenants: BTreeMap<String, TenantTotals>,
    /// Total valid records replayed (all kinds).
    pub records: u64,
    /// Commit records among them.
    pub commits: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Whether a torn tail was truncated from the final segment.
    pub torn_tail_truncated: bool,
}

/// Monotonic journal statistics (exposed as `starj_durable_*` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalCounters {
    /// Records appended since open.
    pub records: u64,
    /// Frame bytes appended since open.
    pub bytes: u64,
    /// Actual `fdatasync` calls issued (group commit makes this ≤ records).
    pub fsyncs: u64,
    /// Segment rotations since open.
    pub rotations: u64,
    /// Current segment count on disk.
    pub segments: u64,
}

#[derive(Debug)]
struct WriteHalf {
    file: Arc<File>,
    seg_seq: u64,
    seg_len: u64,
    /// Monotone sequence number of the last record written (0 = none).
    written_seq: u64,
}

#[derive(Debug)]
struct SyncHalf {
    /// Highest `written_seq` known durable.
    synced_seq: u64,
}

/// The append-only budget journal. Cheap to share (`Arc` it); all methods
/// take `&self`.
#[derive(Debug)]
pub struct BudgetWal {
    config: WalConfig,
    fault: Option<Arc<FaultPlan>>,
    write: Mutex<WriteHalf>,
    sync: Mutex<SyncHalf>,
    broken: AtomicBool,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    rotations: AtomicU64,
    segments: AtomicU64,
}

fn io_err(e: std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()
}

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
    /// Byte length of the valid prefix (header + intact records).
    valid_len: u64,
    /// Offset of the first damaged byte, if any damage was found.
    damage_at: Option<u64>,
}

/// Scans one segment, handing each intact record to `apply` as it decodes,
/// up to the end or the first damaged byte.
fn scan_segment(bytes: &[u8], mut apply: impl FnMut(Settlement)) -> SegmentScan {
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // Partial or missing header: a crash during rotation leaves this.
        return SegmentScan { valid_len: 0, damage_at: Some(0) };
    }
    let mut off = SEGMENT_MAGIC.len();
    while off < bytes.len() {
        let Some((record, frame_len)) = decode_frame(&bytes[off..]) else {
            return SegmentScan { valid_len: off as u64, damage_at: Some(off as u64) };
        };
        apply(record);
        off += frame_len;
    }
    SegmentScan { valid_len: off as u64, damage_at: None }
}

/// The record framed at the start of `rest` and the frame's byte length;
/// `None` for a partial frame, a bad CRC, or an undecodable payload.
fn decode_frame(rest: &[u8]) -> Option<(Settlement, usize)> {
    let header = rest.get(..8)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return None;
    }
    let payload = rest.get(8..8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((decode_payload(payload)?, 8 + len))
}

impl Recovery {
    /// Folds one replayed record into the totals. Journal order is
    /// per-tenant charge order, so the f64 additions in `apply` reproduce
    /// the ledger bit-for-bit.
    fn apply(&mut self, record: Settlement) {
        self.records += 1;
        self.commits += u64::from(record.kind == SettlementKind::Commit);
        match self.tenants.get_mut(&record.tenant) {
            Some(totals) => totals.apply(&record),
            None => {
                let mut totals = TenantTotals::default();
                totals.apply(&record);
                self.tenants.insert(record.tenant, totals);
            }
        }
    }
}

impl BudgetWal {
    /// Open (creating if needed) the journal at `config.dir`, replaying
    /// whatever is on disk. Returns the writable handle plus the
    /// [`Recovery`] the caller adopts into its accountant.
    ///
    /// `fault` threads a [`FaultPlan`] through every IO seam; pass `None`
    /// in production.
    pub fn open(
        config: WalConfig,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<(BudgetWal, Recovery), WalError> {
        if let Some(plan) = &fault {
            if plan.trip("wal.open").is_some() {
                return Err(WalError::Io("injected open failure".into()));
            }
        }
        std::fs::create_dir_all(&config.dir).map_err(io_err)?;

        let mut seqs: Vec<u64> = std::fs::read_dir(&config.dir)
            .map_err(io_err)?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_name(&entry.file_name().to_string_lossy())
            })
            .collect();
        seqs.sort_unstable();

        // Records fold into the recovery as they decode, so replay holds
        // one segment's bytes (one reused buffer) and never a record list.
        // A damaged earlier segment fails the whole open, so what it folded
        // in is discarded with the recovery; a torn final segment keeps its
        // valid prefix.
        let mut recovery = Recovery::default();
        let mut tail: Option<(u64, u64)> = None; // (seq, valid_len) of the final segment
        let mut bytes = Vec::new();
        for (i, &seq) in seqs.iter().enumerate() {
            let is_last = i + 1 == seqs.len();
            let path = segment_path(&config.dir, seq);
            bytes.clear();
            File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes)).map_err(io_err)?;
            let scan = scan_segment(&bytes, |record| recovery.apply(record));
            if let Some(offset) = scan.damage_at {
                if !is_last {
                    return Err(WalError::Corrupt { segment: seq, offset });
                }
                recovery.torn_tail_truncated = true;
            }
            if is_last {
                tail = Some((seq, scan.valid_len));
            }
        }
        recovery.segments = seqs.len() as u64;

        // Open the tail segment for append, truncating any torn bytes; or
        // start segment 0 on a fresh directory.
        let (seg_seq, file, seg_len) = match tail {
            Some((seq, valid_len)) => {
                let path = segment_path(&config.dir, seq);
                let mut file =
                    OpenOptions::new().read(true).write(true).open(&path).map_err(io_err)?;
                if valid_len < SEGMENT_MAGIC.len() as u64 {
                    // Torn header (crash mid-rotation): reuse the file as
                    // a fresh segment.
                    file.set_len(0).map_err(io_err)?;
                    file.write_all(SEGMENT_MAGIC).map_err(io_err)?;
                    (seq, file, SEGMENT_MAGIC.len() as u64)
                } else {
                    file.set_len(valid_len).map_err(io_err)?;
                    file.seek(SeekFrom::End(0)).map_err(io_err)?;
                    (seq, file, valid_len)
                }
            }
            None => {
                let path = segment_path(&config.dir, 0);
                let mut file = OpenOptions::new()
                    .create_new(true)
                    .write(true)
                    .read(true)
                    .open(&path)
                    .map_err(io_err)?;
                file.write_all(SEGMENT_MAGIC).map_err(io_err)?;
                (0, file, SEGMENT_MAGIC.len() as u64)
            }
        };
        if recovery.torn_tail_truncated || tail.is_none() {
            file.sync_data().map_err(io_err)?;
        }

        let segments = recovery.segments.max(1);
        let wal = BudgetWal {
            config,
            fault,
            write: Mutex::new(WriteHalf { file: Arc::new(file), seg_seq, seg_len, written_seq: 0 }),
            sync: Mutex::new(SyncHalf { synced_seq: 0 }),
            broken: AtomicBool::new(false),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            segments: AtomicU64::new(segments),
        };
        Ok((wal, recovery))
    }

    /// Append one record. Under [`SyncPolicy::Group`]/[`SyncPolicy::Always`]
    /// the record is on stable storage when this returns `Ok`. Any IO
    /// failure permanently breaks the handle (see module docs on
    /// fail-stop); an [`WalError::Oversize`] record is refused before a
    /// byte is written and breaks nothing.
    pub fn append(&self, record: &Settlement) -> Result<(), WalError> {
        if self.broken.load(Ordering::Acquire) {
            return Err(WalError::Broken);
        }
        let frame = encode_frame(record)?;

        // -- write half ---------------------------------------------------
        let (my_seq, durable_up_to, file) = {
            let mut w = self.write.lock().expect("wal write half");
            if self.broken.load(Ordering::Acquire) {
                return Err(WalError::Broken);
            }
            if w.seg_len + frame.len() as u64 > self.config.segment_bytes
                && w.seg_len > SEGMENT_MAGIC.len() as u64
            {
                self.rotate(&mut w)?;
            }
            if let Some(plan) = &self.fault {
                match plan.trip("wal.write") {
                    Some(FaultKind::IoError) => {
                        return Err(self.break_with(WalError::Io("injected write failure".into())));
                    }
                    Some(FaultKind::Crash { torn_bytes }) => {
                        // Leave exactly the torn prefix a kill would leave.
                        let torn = torn_bytes.min(frame.len());
                        let res = w.file.as_ref().write_all(&frame[..torn]);
                        let _ = res; // the "process" is dead either way
                        return Err(self.break_with(WalError::Crashed));
                    }
                    _ => {}
                }
            }
            if let Err(e) = w.file.as_ref().write_all(&frame) {
                return Err(self.break_with(io_err(e)));
            }
            w.seg_len += frame.len() as u64;
            w.written_seq += 1;
            self.records.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
            (w.written_seq, w.written_seq, Arc::clone(&w.file))
        };

        // -- sync half ----------------------------------------------------
        match self.config.sync {
            SyncPolicy::Never => Ok(()),
            SyncPolicy::Always => self.sync_cohort(my_seq, durable_up_to, &file, false),
            SyncPolicy::Group => self.sync_cohort(my_seq, durable_up_to, &file, true),
        }
    }

    /// Join the group-commit cohort: fsync if `my_seq` is not yet durable.
    ///
    /// `file` was captured under the write lock, so `my_seq`'s bytes are
    /// in it. If a rotation happened since, the rotation already synced
    /// this file and advanced `synced_seq` past us — we return without
    /// touching the (now sealed) file.
    fn sync_cohort(
        &self,
        my_seq: u64,
        durable_up_to: u64,
        file: &File,
        skip_if_synced: bool,
    ) -> Result<(), WalError> {
        let mut s = self.sync.lock().expect("wal sync half");
        if skip_if_synced && s.synced_seq >= my_seq {
            return Ok(());
        }
        if self.broken.load(Ordering::Acquire) {
            return Err(WalError::Broken);
        }
        if let Some(plan) = &self.fault {
            match plan.trip("wal.sync") {
                Some(FaultKind::IoError) => {
                    return Err(self.break_with(WalError::Io("injected fsync failure".into())));
                }
                Some(FaultKind::Crash { .. }) => {
                    // Crash at the fsync boundary: bytes are written (page
                    // cache) but the ack never happens.
                    return Err(self.break_with(WalError::Crashed));
                }
                _ => {}
            }
        }
        if let Err(e) = file.sync_data() {
            return Err(self.break_with(io_err(e)));
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        s.synced_seq = s.synced_seq.max(durable_up_to);
        Ok(())
    }

    /// Seal the current segment and open its successor. Called with the
    /// write lock held; takes the sync lock (lock order: write → sync).
    fn rotate(&self, w: &mut WriteHalf) -> Result<(), WalError> {
        if let Some(plan) = &self.fault {
            match plan.trip("wal.rotate") {
                Some(FaultKind::IoError) => {
                    return Err(self.break_with(WalError::Io("injected rotate failure".into())));
                }
                Some(FaultKind::Crash { torn_bytes }) => {
                    // Crash between creating the successor and writing its
                    // header: recovery must cope with a header-torn final
                    // segment.
                    let path = segment_path(&self.config.dir, w.seg_seq + 1);
                    if let Ok(mut f) = File::create(path) {
                        let torn = torn_bytes.min(SEGMENT_MAGIC.len());
                        let _ = f.write_all(&SEGMENT_MAGIC[..torn]);
                    }
                    return Err(self.break_with(WalError::Crashed));
                }
                _ => {}
            }
        }
        // Seal: everything in the old segment becomes durable before any
        // record lands in the new one.
        if self.config.sync != SyncPolicy::Never {
            if let Err(e) = w.file.sync_data() {
                return Err(self.break_with(io_err(e)));
            }
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut s = self.sync.lock().expect("wal sync half");
            s.synced_seq = s.synced_seq.max(w.written_seq);
        }
        let next = w.seg_seq + 1;
        let path = segment_path(&self.config.dir, next);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .read(true)
            .open(&path)
            .map_err(|e| self.break_with(io_err(e)))?;
        file.write_all(SEGMENT_MAGIC).map_err(|e| self.break_with(io_err(e)))?;
        w.file = Arc::new(file);
        w.seg_seq = next;
        w.seg_len = SEGMENT_MAGIC.len() as u64;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.segments.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn break_with(&self, e: WalError) -> WalError {
        self.broken.store(true, Ordering::Release);
        e
    }

    /// Whether a failure has permanently broken this handle.
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }

    /// Snapshot of the journal statistics.
    pub fn counters(&self) -> WalCounters {
        WalCounters {
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            rotations: self.rotations.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
        }
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordKind, MAX_TENANT_BYTES};
    use crate::tempdir::TempDir;

    fn rec(kind: RecordKind, tenant: &str, eps: f64) -> Settlement {
        Settlement {
            kind,
            tenant: tenant.into(),
            query_hash: 0x1234,
            epsilon: eps,
            delta: 0.0,
            data_version: 1,
            request_id: 0,
        }
    }

    fn cfg(dir: &TempDir) -> WalConfig {
        WalConfig { dir: dir.path().to_path_buf(), sync: SyncPolicy::Group, segment_bytes: 4 << 20 }
    }

    #[test]
    fn append_then_reopen_replays_commits_only() {
        let dir = TempDir::new("wal").unwrap();
        {
            let (wal, rec0) = BudgetWal::open(cfg(&dir), None).unwrap();
            assert_eq!(rec0, Recovery { segments: 0, ..Default::default() });
            wal.append(&rec(RecordKind::Reserve, "a", 0.25)).unwrap();
            wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
            wal.append(&rec(RecordKind::Reserve, "a", 0.5)).unwrap();
            wal.append(&rec(RecordKind::Refund, "a", 0.5)).unwrap();
            wal.append(&rec(RecordKind::Commit, "b", 0.125)).unwrap();
            wal.append(&rec(RecordKind::Refusal, "b", 8.0)).unwrap();
            assert_eq!(wal.counters().records, 6);
        }
        let (_, recovery) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert_eq!(recovery.records, 6);
        assert_eq!(recovery.commits, 2);
        assert!(!recovery.torn_tail_truncated);
        assert_eq!(recovery.tenants["a"].committed_epsilon, 0.25);
        assert_eq!(recovery.tenants["a"].commits, 1);
        assert_eq!(recovery.tenants["b"].committed_epsilon, 0.125);
    }

    #[test]
    fn oversize_record_is_refused_unwritten_and_later_records_recover() {
        let dir = TempDir::new("wal").unwrap();
        {
            let (wal, _) = BudgetWal::open(cfg(&dir), None).unwrap();
            wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
            let bytes = wal.counters().bytes;
            let long = "x".repeat(MAX_TENANT_BYTES + 1);
            assert!(matches!(
                wal.append(&rec(RecordKind::Commit, &long, 1.0)),
                Err(WalError::Oversize { .. })
            ));
            assert_eq!(wal.counters().bytes, bytes, "nothing written");
            assert!(!wal.is_broken(), "an oversize record breaks nothing");
            wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
            wal.append(&rec(RecordKind::Commit, "b", 0.125)).unwrap();
        }
        let (_, recovery) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert!(!recovery.torn_tail_truncated);
        assert_eq!(recovery.commits, 3);
        assert_eq!(recovery.tenants["a"].committed_epsilon, 0.5);
        assert_eq!(recovery.tenants["b"].committed_epsilon, 0.125);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = TempDir::new("wal").unwrap();
        {
            let (wal, _) = BudgetWal::open(cfg(&dir), None).unwrap();
            wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
        }
        // Tear the tail by hand: append garbage that parses as a frame
        // header but fails CRC.
        let seg = dir.path().join("wal-00000000.seg");
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[9, 0, 0, 0, 1, 2, 3, 4, 0xAA, 0xBB]).unwrap();
        drop(f);
        let before = std::fs::metadata(&seg).unwrap().len();
        let (wal, recovery) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert!(recovery.torn_tail_truncated);
        assert_eq!(recovery.commits, 1);
        assert!(std::fs::metadata(&seg).unwrap().len() < before);
        // The journal keeps working after truncation.
        wal.append(&rec(RecordKind::Commit, "a", 0.5)).unwrap();
        drop(wal);
        let (_, again) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert_eq!(again.commits, 2);
        assert_eq!(again.tenants["a"].committed_epsilon, 0.75);
        assert!(!again.torn_tail_truncated);
    }

    #[test]
    fn mid_history_corruption_is_refused() {
        let dir = TempDir::new("wal").unwrap();
        let small = WalConfig { segment_bytes: 128, ..cfg(&dir) };
        {
            let (wal, _) = BudgetWal::open(small.clone(), None).unwrap();
            for i in 0..8 {
                wal.append(&rec(RecordKind::Commit, "a", 0.25 + i as f64)).unwrap();
            }
            assert!(wal.counters().rotations > 0, "workload too small to rotate");
        }
        // Flip a byte in the FIRST segment (not the tail).
        let seg = dir.path().join("wal-00000000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, bytes).unwrap();
        let err = BudgetWal::open(small, None).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { segment: 0, .. }), "got {err:?}");
    }

    #[test]
    fn rotation_preserves_every_record() {
        let dir = TempDir::new("wal").unwrap();
        let small = WalConfig { segment_bytes: 100, ..cfg(&dir) };
        {
            let (wal, _) = BudgetWal::open(small.clone(), None).unwrap();
            for _ in 0..20 {
                wal.append(&rec(RecordKind::Commit, "t", 0.0078125)).unwrap();
            }
            let c = wal.counters();
            assert!(c.segments >= 3, "expected several segments, got {}", c.segments);
        }
        let (_, recovery) = BudgetWal::open(small, None).unwrap();
        assert_eq!(recovery.commits, 20);
        assert_eq!(recovery.tenants["t"].committed_epsilon, 20.0 * 0.0078125);
    }

    #[test]
    fn injected_io_error_breaks_the_handle() {
        let dir = TempDir::new("wal").unwrap();
        let plan = Arc::new(FaultPlan::new(7).fail_at("wal.write", 1, FaultKind::IoError));
        let (wal, _) = BudgetWal::open(cfg(&dir), Some(plan)).unwrap();
        wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
        assert_eq!(
            wal.append(&rec(RecordKind::Commit, "a", 0.25)),
            Err(WalError::Io("injected write failure".into()))
        );
        assert!(wal.is_broken());
        assert_eq!(wal.append(&rec(RecordKind::Commit, "a", 0.25)), Err(WalError::Broken));
        // The record that failed never reached disk.
        drop(wal);
        let (_, recovery) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert_eq!(recovery.commits, 1);
    }

    #[test]
    fn injected_crash_leaves_a_recoverable_torn_tail() {
        let dir = TempDir::new("wal").unwrap();
        let plan =
            Arc::new(FaultPlan::new(7).fail_at("wal.write", 2, FaultKind::Crash { torn_bytes: 5 }));
        let (wal, _) = BudgetWal::open(cfg(&dir), Some(plan)).unwrap();
        wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
        wal.append(&rec(RecordKind::Commit, "a", 0.5)).unwrap();
        assert_eq!(wal.append(&rec(RecordKind::Commit, "a", 1.0)), Err(WalError::Crashed));
        drop(wal);
        let (_, recovery) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert!(recovery.torn_tail_truncated);
        assert_eq!(recovery.commits, 2);
        assert_eq!(recovery.tenants["a"].committed_epsilon, 0.75);
    }

    #[test]
    fn crash_mid_rotation_recovers_the_sealed_segment() {
        let dir = TempDir::new("wal").unwrap();
        let small = WalConfig { segment_bytes: 100, ..cfg(&dir) };
        let plan = Arc::new(FaultPlan::new(7).fail_at(
            "wal.rotate",
            0,
            FaultKind::Crash { torn_bytes: 3 },
        ));
        let (wal, _) = BudgetWal::open(small.clone(), Some(plan)).unwrap();
        let mut committed = 0u32;
        loop {
            match wal.append(&rec(RecordKind::Commit, "a", 0.25)) {
                Ok(()) => committed += 1,
                Err(WalError::Crashed) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        drop(wal);
        // Successor file exists with a torn header.
        assert!(dir.path().join("wal-00000001.seg").exists());
        let (wal, recovery) = BudgetWal::open(small, None).unwrap();
        assert_eq!(recovery.commits, committed as u64);
        assert!(recovery.torn_tail_truncated);
        // The truncated successor is reusable.
        wal.append(&rec(RecordKind::Commit, "a", 0.25)).unwrap();
    }

    #[test]
    fn group_commit_batches_fsyncs_under_concurrency() {
        let dir = TempDir::new("wal").unwrap();
        let (wal, _) = BudgetWal::open(cfg(&dir), None).unwrap();
        let wal = Arc::new(wal);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        wal.append(&rec(RecordKind::Commit, &format!("t{t}"), 0.25 + i as f64))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let c = wal.counters();
        assert_eq!(c.records, 400);
        assert!(c.fsyncs <= c.records, "fsyncs {} > records {}", c.fsyncs, c.records);
    }

    #[test]
    fn empty_directory_round_trips() {
        let dir = TempDir::new("wal").unwrap();
        let (_, recovery) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert_eq!(recovery.records, 0);
        assert_eq!(recovery.segments, 0);
        let (_, again) = BudgetWal::open(cfg(&dir), None).unwrap();
        assert_eq!(again.records, 0);
        assert_eq!(again.segments, 1); // the created segment 0
        assert!(!again.torn_tail_truncated);
    }
}
