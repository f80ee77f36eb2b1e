//! Crash-consistent on-disk checkpoints for the iteration engine.
//!
//! # Why disk checkpoints are consistent
//!
//! The engine's per-iteration consistency barrier already proves that every
//! rank holds a checkpoint for the *same* iteration before any rank starts
//! the next one (see the `engine` module docs). This module extends that
//! uniformity to disk with the same discipline the telemetry sink uses for
//! its JSONL log: persistence happens only at the barrier, so the newest
//! *committed* epoch on disk is always a globally consistent cut of the run.
//! The write protocol per epoch is:
//!
//! 1. every rank writes its own checkpoint file (`slot-<k>.ckpt`) into the
//!    epoch directory — write-to-temp, fsync, atomic rename, with a trailing
//!    FNV-1a checksum inside the file;
//! 2. a barrier proves every slot file is durable;
//! 3. rank 0 writes the epoch manifest the same way. The manifest's atomic
//!    rename **is** the commit point: an epoch without a readable, checksum-
//!    valid manifest does not exist as far as recovery is concerned.
//!
//! A kill at any instant therefore leaves either the previous committed
//! epoch (kill before the rename) or the new one (kill after) — never a
//! half-visible state. Torn or corrupted files are detected by checksum and
//! reported as typed [`DurabilityError`]s; [`CheckpointStore::recover`]
//! falls back to the newest older epoch that verifies.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   epoch-0000000000/        one directory per committed barrier epoch
//!     slot-0.ckpt            rank 0's tile checkpoint (+ costs + cursors)
//!     slot-1.ckpt            ...
//!     manifest.ckpt          commit record: counters, membership, job spec
//!   epoch-0000000001/
//!     ...
//! ```
//!
//! Epoch sequence numbers are monotonic across restarts *and* across
//! ingestion splices (a splice restarts the iteration counter, so iteration
//! numbers alone could not order epochs). After each commit every epoch
//! older than the previous one is pruned, keeping a fallback for torn-write
//! recovery without unbounded disk growth.

use ptycho_cluster::{CrashPhase, FaultCursor, MembershipView};
use ptycho_fft::{CArray3, Complex64};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic + version prefixes for the two file types.
const SLOT_MAGIC: &[u8; 4] = b"PTS1";
const MANIFEST_MAGIC: &[u8; 4] = b"PTM1";
const FORMAT_VERSION: u32 = 1;

/// How many committed epochs [`CheckpointStore::commit`] keeps on disk: the
/// new one plus one fallback for torn-write recovery.
const KEEP_EPOCHS: u64 = 2;

/// A durability failure, always typed — corruption is reported, never
/// panicked on and never silently resumed past.
#[derive(Clone, Debug, PartialEq)]
pub enum DurabilityError {
    /// An I/O operation on the store failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error, stringified.
        detail: String,
    },
    /// A file existed but failed verification: bad magic, wrong version, a
    /// checksum mismatch (torn write), or a malformed payload.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        detail: String,
    },
    /// No epoch in the store could be recovered. Carries every rejected
    /// epoch with the reason it was rejected, newest first.
    NoValidEpoch {
        /// `(epoch seq, reason)` for every epoch directory inspected.
        rejected: Vec<(u64, String)>,
    },
    /// The fault policy's process-kill injection struck during this commit
    /// (see `FaultPolicy::kill_process_at_barrier`): the simulated process
    /// is dead and the engine must surface `CommError::ProcessKilled`.
    SimulatedCrash {
        /// The epoch sequence number the kill struck at.
        seq: u64,
        /// Where relative to the manifest rename the kill struck.
        phase: CrashPhase,
    },
    /// Another live process (or another store instance in this process)
    /// already owns the store's lockfile. Two writers interleaving epoch
    /// commits under one root would corrupt the sequence discipline, so the
    /// second opener gets this typed error instead of a share. Stale locks
    /// left by killed processes are detected (the owner's pid is gone) and
    /// reclaimed silently.
    Locked {
        /// The lockfile path.
        path: PathBuf,
        /// The pid recorded in the lockfile.
        owner_pid: u32,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io { path, detail } => {
                write!(
                    f,
                    "checkpoint store I/O failure at {}: {detail}",
                    path.display()
                )
            }
            DurabilityError::Corrupt { path, detail } => {
                write!(f, "checkpoint file {} is corrupt: {detail}", path.display())
            }
            DurabilityError::NoValidEpoch { rejected } => {
                write!(f, "no recoverable checkpoint epoch (")?;
                for (i, (seq, reason)) in rejected.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "epoch {seq}: {reason}")?;
                }
                write!(f, ")")
            }
            DurabilityError::SimulatedCrash { seq, phase } => write!(
                f,
                "simulated process kill at checkpoint commit {seq} ({phase:?})"
            ),
            DurabilityError::Locked { path, owner_pid } => write!(
                f,
                "checkpoint store is locked by live process {owner_pid} ({})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// FNV-1a 64-bit hash — the store's file checksum and the volume digest the
/// CI smoke compares. Hand-rolled because the build environment is offline.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Little-endian append-only encoder for the checkpoint file formats.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern (bit-identity survives the
    /// round trip by construction).
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

/// Little-endian decoder matching [`ByteWriter`]; every read is
/// bounds-checked and reports [`DurabilityError::Corrupt`] on underrun.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload; `path` labels decode errors.
    pub fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Self { buf, pos: 0, path }
    }

    fn corrupt(&self, detail: &str) -> DurabilityError {
        DurabilityError::Corrupt {
            path: self.path.to_path_buf(),
            detail: detail.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurabilityError> {
        if self.pos + n > self.buf.len() {
            return Err(self.corrupt("payload truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DurabilityError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DurabilityError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DurabilityError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional value: tag `0` is absent, tag `1` is followed by the
    /// value `read` decodes, any other tag is corrupt.
    pub(crate) fn get_opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DurabilityError>,
    ) -> Result<Option<T>, DurabilityError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            tag => Err(self.corrupt(&format!("unknown option tag {tag}"))),
        }
    }

    /// Reads a `u64` and checks it fits a `usize` sanity bound.
    pub fn get_len(&mut self, max: usize) -> Result<usize, DurabilityError> {
        let len = self.get_u64()?;
        if len > max as u64 {
            return Err(self.corrupt("implausible length prefix"));
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DurabilityError> {
        let len = self.get_len(self.buf.len())?;
        self.take(len)
    }

    /// True when every payload byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A value that can round-trip through a checkpoint file bit-identically.
/// The engine requires it of every `SolverKernel::Checkpoint`.
pub trait CheckpointPayload: Sized {
    /// Appends the value's exact encoding.
    fn encode(&self, out: &mut ByteWriter);
    /// Decodes a value previously written by [`CheckpointPayload::encode`].
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DurabilityError>;
}

impl CheckpointPayload for CArray3 {
    fn encode(&self, out: &mut ByteWriter) {
        let (depth, rows, cols) = self.shape();
        out.put_u64(depth as u64);
        out.put_u64(rows as u64);
        out.put_u64(cols as u64);
        for value in self.as_slice() {
            out.put_f64(value.re);
            out.put_f64(value.im);
        }
    }

    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DurabilityError> {
        const MAX_DIM: usize = 1 << 20;
        let depth = reader.get_len(MAX_DIM)?;
        let rows = reader.get_len(MAX_DIM)?;
        let cols = reader.get_len(MAX_DIM)?;
        let len = depth
            .checked_mul(rows)
            .and_then(|dr| dr.checked_mul(cols))
            .filter(|&n| n <= (1 << 30))
            .ok_or_else(|| DurabilityError::Corrupt {
                path: reader.path.to_path_buf(),
                detail: "implausible volume shape".to_string(),
            })?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            let re = reader.get_f64()?;
            let im = reader.get_f64()?;
            values.push(Complex64 { re, im });
        }
        let mut volume = CArray3::zeros(depth, rows, cols);
        volume.as_mut_slice().copy_from_slice(&values);
        Ok(volume)
    }
}

/// One rank's durable checkpoint: everything the engine's in-memory
/// `CheckpointSlot` holds, plus the rank's fault-decision cursor, with the
/// solver state kept as opaque [`CheckpointPayload`] bytes so the store
/// stays kernel-agnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotRecord {
    /// First iteration the restored state has *not* yet run.
    pub iteration: usize,
    /// The rank's per-iteration cost history up to the checkpoint.
    pub costs: Vec<f64>,
    /// The rank's fault-decision counters, when a fault harness is
    /// installed.
    pub cursor: Option<FaultCursor>,
    /// The kernel checkpoint, encoded via [`CheckpointPayload`].
    pub state: Vec<u8>,
}

impl SlotRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.iteration as u64);
        w.put_u64(self.costs.len() as u64);
        for &cost in &self.costs {
            w.put_f64(cost);
        }
        match &self.cursor {
            None => w.put_u8(0),
            Some(cursor) => {
                w.put_u8(1);
                w.put_u64(cursor.total_sends);
                w.put_u64(cursor.streams.len() as u64);
                for &(to, tag, next) in &cursor.streams {
                    w.put_u64(to as u64);
                    w.put_u64(tag);
                    w.put_u64(next);
                }
            }
        }
        w.put_bytes(&self.state);
        w.into_bytes()
    }

    fn decode(payload: &[u8], path: &Path) -> Result<Self, DurabilityError> {
        let mut r = ByteReader::new(payload, path);
        let iteration = r.get_len(u32::MAX as usize)?;
        let cost_count = r.get_len(1 << 24)?;
        let mut costs = Vec::with_capacity(cost_count);
        for _ in 0..cost_count {
            costs.push(r.get_f64()?);
        }
        let cursor = match r.get_u8()? {
            0 => None,
            1 => {
                let total_sends = r.get_u64()?;
                let stream_count = r.get_len(1 << 24)?;
                let mut streams = Vec::with_capacity(stream_count);
                for _ in 0..stream_count {
                    let to = r.get_len(u32::MAX as usize)?;
                    let tag = r.get_u64()?;
                    let next = r.get_u64()?;
                    streams.push((to, tag, next));
                }
                Some(FaultCursor {
                    total_sends,
                    streams,
                })
            }
            _ => {
                return Err(DurabilityError::Corrupt {
                    path: path.to_path_buf(),
                    detail: "bad cursor presence flag".to_string(),
                })
            }
        };
        let state = r.get_bytes()?.to_vec();
        if !r.is_exhausted() {
            return Err(DurabilityError::Corrupt {
                path: path.to_path_buf(),
                detail: "trailing bytes after slot payload".to_string(),
            });
        }
        Ok(Self {
            iteration,
            costs,
            cursor,
            state,
        })
    }
}

/// The commit record of one epoch: the engine counters and membership state
/// a resumed process needs, plus the service's opaque job-spec encoding so
/// `JobEngine::resume(dir)` can rebuild the job from the directory alone.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochManifest {
    /// The epoch's monotonic sequence number.
    pub seq: u64,
    /// First iteration the epoch's checkpoints have *not* yet run.
    pub iteration: usize,
    /// The recovery attempt counter at the barrier.
    pub attempt_index: u8,
    /// Iteration restarts consumed so far.
    pub restarts: usize,
    /// Spare substitutions performed so far.
    pub substitutions: usize,
    /// The membership table frozen for the attempt that committed this
    /// epoch (substitutions included).
    pub membership: MembershipView,
    /// The service-level job spec, encoded by `ptycho_core::service` —
    /// opaque to the store.
    pub spec: Vec<u8>,
}

impl EpochManifest {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.seq);
        w.put_u64(self.iteration as u64);
        w.put_u8(self.attempt_index);
        w.put_u64(self.restarts as u64);
        w.put_u64(self.substitutions as u64);
        w.put_u64(self.membership.epoch());
        w.put_u64(self.membership.slots() as u64);
        for &node in self.membership.assignment() {
            w.put_u64(node as u64);
        }
        w.put_u64(self.membership.spares_remaining() as u64);
        for node in self.membership.spare_nodes() {
            w.put_u64(node as u64);
        }
        w.put_u64(self.membership.dead_nodes().len() as u64);
        for &node in self.membership.dead_nodes() {
            w.put_u64(node as u64);
        }
        w.put_bytes(&self.spec);
        w.into_bytes()
    }

    fn decode(payload: &[u8], path: &Path) -> Result<Self, DurabilityError> {
        let mut r = ByteReader::new(payload, path);
        let seq = r.get_u64()?;
        let iteration = r.get_len(u32::MAX as usize)?;
        let attempt_index = r.get_u8()?;
        let restarts = r.get_len(u32::MAX as usize)?;
        let substitutions = r.get_len(u32::MAX as usize)?;
        let epoch = r.get_u64()?;
        let slot_count = r.get_len(1 << 16)?;
        if slot_count == 0 {
            return Err(DurabilityError::Corrupt {
                path: path.to_path_buf(),
                detail: "manifest records zero slots".to_string(),
            });
        }
        let mut assignment = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            assignment.push(r.get_len(u32::MAX as usize)?);
        }
        let spare_count = r.get_len(1 << 16)?;
        let mut spares = Vec::with_capacity(spare_count);
        for _ in 0..spare_count {
            spares.push(r.get_len(u32::MAX as usize)?);
        }
        let dead_count = r.get_len(1 << 16)?;
        let mut dead = Vec::with_capacity(dead_count);
        for _ in 0..dead_count {
            dead.push(r.get_len(u32::MAX as usize)?);
        }
        let spec = r.get_bytes()?.to_vec();
        if !r.is_exhausted() {
            return Err(DurabilityError::Corrupt {
                path: path.to_path_buf(),
                detail: "trailing bytes after manifest payload".to_string(),
            });
        }
        Ok(Self {
            seq,
            iteration,
            attempt_index,
            restarts,
            substitutions,
            membership: MembershipView::from_parts(epoch, assignment, spares, dead),
            spec,
        })
    }
}

/// One fully verified epoch, ready to prefill the engine's checkpoint slots.
#[derive(Clone, Debug)]
pub struct RecoveredEpoch {
    /// The commit record.
    pub manifest: EpochManifest,
    /// One verified record per slot, indexed by slot.
    pub slots: Vec<SlotRecord>,
}

/// The result of scanning the store: the newest epoch that verified end to
/// end (if any), plus every newer or torn epoch that had to be rejected,
/// with the typed reason each one was rejected.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest fully verified epoch.
    pub epoch: Option<RecoveredEpoch>,
    /// `(seq, reason)` for every rejected epoch, newest first.
    pub rejected: Vec<(u64, String)>,
}

/// Name of the single-writer lockfile at the store root.
const LOCK_FILE: &str = "lock";

/// Whether `pid` names a live process. On Linux this is a procfs probe —
/// std-only, no new dependencies. Elsewhere liveness cannot be checked
/// cheaply, so every recorded pid is conservatively treated as alive
/// (a stale lock then needs manual removal rather than risking two
/// writers).
fn pid_is_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// The crash-consistent checkpoint store rooted at one directory.
///
/// Thread-safe for the engine's access pattern: each rank writes only its
/// own slot file, and only rank 0 commits, after a barrier ordered all slot
/// writes before it.
///
/// # Single-writer locking
///
/// Opening the store takes an exclusive lockfile at the root (`lock`,
/// holding the owner's pid). A second open — from another process *or*
/// another store instance in the same process — fails with
/// [`DurabilityError::Locked`] while the first is alive; the lock is
/// released when the store is dropped. A lock left behind by a killed
/// process is detected by probing the recorded pid and reclaimed, so
/// kill/resume cycles need no manual cleanup.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_seq: AtomicU64,
    /// The lockfile this instance owns and must remove on drop.
    lock_path: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`, taking the
    /// single-writer lock. The next epoch sequence number continues above
    /// everything already on disk — committed or torn — so sequence numbers
    /// never repeat across restarts.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| DurabilityError::Io {
            path: dir.clone(),
            detail: e.to_string(),
        })?;
        let lock_path = Self::acquire_lock(&dir)?;
        let mut max_seq = None;
        for seq in list_epochs(&dir)? {
            max_seq = Some(max_seq.map_or(seq, |m: u64| m.max(seq)));
        }
        Ok(Self {
            next_seq: AtomicU64::new(max_seq.map_or(0, |m| m + 1)),
            dir,
            lock_path,
        })
    }

    /// Creates the lockfile exclusively, handling the stale-lock case: a
    /// recorded pid that no longer runs is a crash leftover and is
    /// reclaimed; a live one (including this process — a second store
    /// instance over the same root) is a real conflict.
    fn acquire_lock(dir: &Path) -> Result<PathBuf, DurabilityError> {
        let lock_path = dir.join(LOCK_FILE);
        let io_err = |e: std::io::Error| DurabilityError::Io {
            path: lock_path.clone(),
            detail: e.to_string(),
        };
        // Two tries: the second runs only after a stale lock was removed.
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut file) => {
                    use std::io::Write as _;
                    file.write_all(std::process::id().to_string().as_bytes())
                        .map_err(io_err)?;
                    file.sync_all().map_err(io_err)?;
                    return Ok(lock_path);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner_pid = std::fs::read_to_string(&lock_path)
                        .ok()
                        .and_then(|text| text.trim().parse::<u32>().ok());
                    match owner_pid {
                        Some(pid) if pid_is_alive(pid) => {
                            return Err(DurabilityError::Locked {
                                path: lock_path,
                                owner_pid: pid,
                            });
                        }
                        // Dead owner (or an unreadable lock, which only a
                        // crash mid-acquisition leaves behind): reclaim.
                        _ => match std::fs::remove_file(&lock_path) {
                            Ok(()) => {}
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                            Err(e) => return Err(io_err(e)),
                        },
                    }
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        // Both tries hit AlreadyExists: another opener reclaimed-and-locked
        // between ours. That opener is alive by definition.
        let owner_pid = std::fs::read_to_string(&lock_path)
            .ok()
            .and_then(|text| text.trim().parse::<u32>().ok())
            .unwrap_or(0);
        Err(DurabilityError::Locked {
            path: lock_path,
            owner_pid,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The lockfile this instance holds (present while the store is open).
    pub fn lock_path(&self) -> &Path {
        &self.lock_path
    }

    /// The sequence number the next commit will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    fn epoch_dir(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("epoch-{seq:010}"))
    }

    /// Durably writes one rank's record into the (not yet committed) epoch
    /// `seq`. Returns the file size in bytes for telemetry. Safe to call
    /// concurrently from different ranks; the epoch directory is created
    /// idempotently.
    pub fn write_slot(
        &self,
        seq: u64,
        slot: usize,
        record: &SlotRecord,
    ) -> Result<u64, DurabilityError> {
        let dir = self.epoch_dir(seq);
        std::fs::create_dir_all(&dir).map_err(|e| DurabilityError::Io {
            path: dir.clone(),
            detail: e.to_string(),
        })?;
        let path = dir.join(format!("slot-{slot}.ckpt"));
        let bytes = frame_file(SLOT_MAGIC, &record.encode());
        let len = bytes.len() as u64;
        write_atomic(&path, &bytes)?;
        Ok(len)
    }

    /// Commits epoch `manifest.seq`: durably writes the manifest, whose
    /// atomic rename makes the epoch visible, then advances the sequence
    /// counter and prunes epochs older than the previous one.
    ///
    /// `crash` injects the satellite fault: `Some(phase)` simulates a
    /// whole-process kill relative to the manifest rename (see
    /// [`CrashPhase`]) and returns [`DurabilityError::SimulatedCrash`]. The
    /// on-disk state is left exactly as the phase dictates.
    pub fn commit(
        &self,
        manifest: &EpochManifest,
        crash: Option<CrashPhase>,
    ) -> Result<(), DurabilityError> {
        let seq = manifest.seq;
        let dir = self.epoch_dir(seq);
        std::fs::create_dir_all(&dir).map_err(|e| DurabilityError::Io {
            path: dir.clone(),
            detail: e.to_string(),
        })?;
        let path = dir.join("manifest.ckpt");
        let bytes = frame_file(MANIFEST_MAGIC, &manifest.encode());
        match crash {
            Some(CrashPhase::BeforeRename) => {
                // The slot files are durable but the manifest never appears:
                // leave only the temp file behind, exactly as a kill between
                // the write and the rename would.
                let tmp = path.with_extension("ckpt.tmp");
                write_plain(&tmp, &bytes)?;
                return Err(DurabilityError::SimulatedCrash {
                    seq,
                    phase: CrashPhase::BeforeRename,
                });
            }
            Some(CrashPhase::DuringRename) => {
                // A torn manifest at the final path — what a non-atomic
                // filesystem would leave. Recovery must reject it by
                // checksum and fall back.
                write_plain(&path, &bytes[..bytes.len() / 2])?;
                return Err(DurabilityError::SimulatedCrash {
                    seq,
                    phase: CrashPhase::DuringRename,
                });
            }
            Some(CrashPhase::AfterRename) | None => {
                write_atomic(&path, &bytes)?;
            }
        }
        self.next_seq.store(seq + 1, Ordering::SeqCst);
        self.prune(seq);
        if crash == Some(CrashPhase::AfterRename) {
            return Err(DurabilityError::SimulatedCrash {
                seq,
                phase: CrashPhase::AfterRename,
            });
        }
        Ok(())
    }

    /// Removes every epoch directory older than `committed_seq`'s
    /// predecessor. Best-effort: pruning failures never fail a commit.
    fn prune(&self, committed_seq: u64) {
        let Ok(epochs) = list_epochs(&self.dir) else {
            return;
        };
        for seq in epochs {
            if seq + KEEP_EPOCHS <= committed_seq {
                let _ = std::fs::remove_dir_all(self.epoch_dir(seq));
            }
        }
    }

    /// Scans the store for the newest epoch that verifies end to end:
    /// manifest readable and checksum-valid, every slot file present,
    /// checksum-valid, and agreeing with the manifest's iteration. Epochs
    /// that fail are reported in [`Recovery::rejected`] (typed, never a
    /// panic) and the scan falls back to the next older epoch.
    pub fn recover(&self) -> Result<Recovery, DurabilityError> {
        let mut epochs = list_epochs(&self.dir)?;
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        let mut recovery = Recovery::default();
        for seq in epochs {
            match self.load_epoch(seq) {
                Ok(epoch) => {
                    recovery.epoch = Some(epoch);
                    return Ok(recovery);
                }
                Err(error) => recovery.rejected.push((seq, error.to_string())),
            }
        }
        Ok(recovery)
    }

    fn load_epoch(&self, seq: u64) -> Result<RecoveredEpoch, DurabilityError> {
        let dir = self.epoch_dir(seq);
        let manifest_path = dir.join("manifest.ckpt");
        let payload = read_verified(&manifest_path, MANIFEST_MAGIC)?;
        let manifest = EpochManifest::decode(&payload, &manifest_path)?;
        if manifest.seq != seq {
            return Err(DurabilityError::Corrupt {
                path: manifest_path,
                detail: format!(
                    "manifest records seq {} but lives in epoch {seq}",
                    manifest.seq
                ),
            });
        }
        let mut slots = Vec::with_capacity(manifest.membership.slots());
        for slot in 0..manifest.membership.slots() {
            let path = dir.join(format!("slot-{slot}.ckpt"));
            let payload = read_verified(&path, SLOT_MAGIC)?;
            let record = SlotRecord::decode(&payload, &path)?;
            if record.iteration != manifest.iteration {
                return Err(DurabilityError::Corrupt {
                    path,
                    detail: format!(
                        "slot {slot} covers iteration {} but the manifest commits {}",
                        record.iteration, manifest.iteration
                    ),
                });
            }
            slots.push(record);
        }
        Ok(RecoveredEpoch { manifest, slots })
    }
}

impl Drop for CheckpointStore {
    /// Releases the single-writer lock. Removal failures are swallowed: a
    /// lock that survives (say, the directory was already deleted) is at
    /// worst a stale lock, which the next opener detects and reclaims.
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// Frames a payload as a complete checkpoint file: magic, version, payload,
/// trailing FNV-1a checksum over everything before it.
fn frame_file(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 16);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(payload);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Verifies a framed file and returns its payload.
fn read_verified(path: &Path, magic: &[u8; 4]) -> Result<Vec<u8>, DurabilityError> {
    let bytes = std::fs::read(path).map_err(|e| DurabilityError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    if bytes.len() < 16 {
        return Err(DurabilityError::Corrupt {
            path: path.to_path_buf(),
            detail: "file shorter than its framing".to_string(),
        });
    }
    if &bytes[0..4] != magic {
        return Err(DurabilityError::Corrupt {
            path: path.to_path_buf(),
            detail: "bad magic".to_string(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(DurabilityError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("unsupported format version {version}"),
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let computed = fnv1a64(&bytes[..body_end]);
    if stored != computed {
        return Err(DurabilityError::Corrupt {
            path: path.to_path_buf(),
            detail: "checksum mismatch (torn or corrupted write)".to_string(),
        });
    }
    Ok(bytes[8..body_end].to_vec())
}

/// Crash-consistent file write: temp file in the same directory, fsync,
/// atomic rename, then a best-effort directory fsync so the rename itself
/// is durable.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let io_err = |e: std::io::Error| DurabilityError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    };
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// A direct (non-atomic) write, used only to simulate torn crash states.
fn write_plain(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    std::fs::write(path, bytes).map_err(|e| DurabilityError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })
}

/// Epoch sequence numbers present under `dir` (committed or not), unsorted.
fn list_epochs(dir: &Path) -> Result<Vec<u64>, DurabilityError> {
    let entries = std::fs::read_dir(dir).map_err(|e| DurabilityError::Io {
        path: dir.to_path_buf(),
        detail: e.to_string(),
    })?;
    let mut seqs = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name.strip_prefix("epoch-") {
            if let Ok(seq) = seq.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    Ok(seqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ptycho-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_volume(seed: u64) -> CArray3 {
        CArray3::from_fn(2, 3, 4, |d, r, c| Complex64 {
            re: (seed as f64) + (d * 100 + r * 10 + c) as f64 * 0.5,
            im: -((d + r + c) as f64) / 3.0,
        })
    }

    fn sample_record(seed: u64, iteration: usize) -> SlotRecord {
        let mut state = ByteWriter::new();
        sample_volume(seed).encode(&mut state);
        SlotRecord {
            iteration,
            costs: vec![3.5, 2.25, 1.0 / 3.0],
            cursor: Some(FaultCursor {
                total_sends: 17,
                streams: vec![(0, 5, 3), (1, 9, 8)],
            }),
            state: state.into_bytes(),
        }
    }

    fn sample_manifest(seq: u64, iteration: usize, slots: usize, spec: &[u8]) -> EpochManifest {
        EpochManifest {
            seq,
            iteration,
            attempt_index: 2,
            restarts: 1,
            substitutions: 0,
            membership: MembershipView::new(slots, 1),
            spec: spec.to_vec(),
        }
    }

    fn commit_epoch(store: &CheckpointStore, seq: u64, iteration: usize, slots: usize) {
        for slot in 0..slots {
            store
                .write_slot(seq, slot, &sample_record(slot as u64, iteration))
                .expect("slot write");
        }
        store
            .commit(&sample_manifest(seq, iteration, slots, b"spec"), None)
            .expect("commit");
    }

    #[test]
    fn slot_and_manifest_round_trip_bit_identically() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.next_seq(), 0);
        commit_epoch(&store, 0, 4, 2);

        let recovery = store.recover().unwrap();
        assert!(recovery.rejected.is_empty());
        let epoch = recovery.epoch.expect("epoch 0 recoverable");
        assert_eq!(epoch.manifest.seq, 0);
        assert_eq!(epoch.manifest.iteration, 4);
        assert_eq!(epoch.manifest.attempt_index, 2);
        assert_eq!(epoch.manifest.restarts, 1);
        assert_eq!(epoch.manifest.spec, b"spec");
        assert_eq!(epoch.manifest.membership, MembershipView::new(2, 1));
        assert_eq!(epoch.slots.len(), 2);
        for (slot, record) in epoch.slots.iter().enumerate() {
            assert_eq!(record, &sample_record(slot as u64, 4));
            let mut reader = ByteReader::new(&record.state, Path::new("state"));
            let volume = CArray3::decode(&mut reader).expect("volume decodes");
            assert_eq!(volume.as_slice(), sample_volume(slot as u64).as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_continues_the_sequence() {
        let dir = temp_dir("reopen");
        let store = CheckpointStore::open(&dir).unwrap();
        commit_epoch(&store, 0, 1, 1);
        commit_epoch(&store, 1, 2, 1);
        drop(store);
        let reopened = CheckpointStore::open(&dir).unwrap();
        assert_eq!(reopened.next_seq(), 2);
        let epoch = reopened.recover().unwrap().epoch.expect("newest epoch");
        assert_eq!(epoch.manifest.seq, 1);
        assert_eq!(epoch.manifest.iteration, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_falls_back_with_typed_error() {
        let dir = temp_dir("torn-manifest");
        let store = CheckpointStore::open(&dir).unwrap();
        commit_epoch(&store, 0, 1, 2);
        commit_epoch(&store, 1, 2, 2);
        // Tear the newest manifest mid-byte.
        let manifest = dir.join("epoch-0000000001").join("manifest.ckpt");
        let bytes = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, &bytes[..bytes.len() - 3]).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.rejected.len(), 1);
        assert_eq!(recovery.rejected[0].0, 1);
        assert!(
            recovery.rejected[0].1.contains("checksum mismatch"),
            "got: {}",
            recovery.rejected[0].1
        );
        let epoch = recovery.epoch.expect("fallback to epoch 0");
        assert_eq!(epoch.manifest.seq, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_slot_byte_falls_back_never_resumes_silently() {
        let dir = temp_dir("corrupt-slot");
        let store = CheckpointStore::open(&dir).unwrap();
        commit_epoch(&store, 0, 1, 2);
        commit_epoch(&store, 1, 2, 2);
        // Flip one byte in the middle of a slot file.
        let slot = dir.join("epoch-0000000001").join("slot-1.ckpt");
        let mut bytes = std::fs::read(&slot).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&slot, &bytes).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.rejected.len(), 1);
        assert!(recovery.rejected[0].1.contains("checksum mismatch"));
        assert_eq!(recovery.epoch.expect("fallback").manifest.seq, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_means_the_epoch_never_happened() {
        let dir = temp_dir("uncommitted");
        let store = CheckpointStore::open(&dir).unwrap();
        commit_epoch(&store, 0, 1, 1);
        // Epoch 1: slot written, never committed (kill before the rename).
        store.write_slot(1, 0, &sample_record(0, 2)).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.rejected.len(), 1);
        assert_eq!(recovery.rejected[0].0, 1);
        assert_eq!(recovery.epoch.expect("epoch 0 stands").manifest.seq, 0);
        // The torn epoch still bumps the next sequence number past itself.
        drop(store);
        assert_eq!(CheckpointStore::open(&dir).unwrap().next_seq(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_recovers_to_nothing_without_error() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        let recovery = store.recover().unwrap();
        assert!(recovery.epoch.is_none());
        assert!(recovery.rejected.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_prunes_all_but_the_last_two_epochs() {
        let dir = temp_dir("prune");
        let store = CheckpointStore::open(&dir).unwrap();
        for seq in 0..4 {
            commit_epoch(&store, seq, seq as usize + 1, 1);
        }
        let mut remaining = list_epochs(&dir).unwrap();
        remaining.sort_unstable();
        assert_eq!(remaining, vec![2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_phases_leave_the_documented_disk_states() {
        for (phase, expect_seq) in [
            (CrashPhase::BeforeRename, 0),
            (CrashPhase::DuringRename, 0),
            (CrashPhase::AfterRename, 1),
        ] {
            let dir = temp_dir(&format!("crash-{phase:?}"));
            let store = CheckpointStore::open(&dir).unwrap();
            commit_epoch(&store, 0, 1, 1);
            store.write_slot(1, 0, &sample_record(0, 2)).unwrap();
            let err = store
                .commit(&sample_manifest(1, 2, 1, b"spec"), Some(phase))
                .expect_err("simulated crash must surface");
            assert_eq!(err, DurabilityError::SimulatedCrash { seq: 1, phase });

            let recovery = store.recover().unwrap();
            let epoch = recovery.epoch.expect("some epoch always survives");
            assert_eq!(epoch.manifest.seq, expect_seq, "phase {phase:?}");
            match phase {
                // Both pre-commit phases reject epoch 1 with a typed error.
                CrashPhase::BeforeRename | CrashPhase::DuringRename => {
                    assert_eq!(recovery.rejected.len(), 1);
                    assert_eq!(recovery.rejected[0].0, 1);
                }
                CrashPhase::AfterRename => assert!(recovery.rejected.is_empty()),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fnv_checksum_is_stable() {
        // The FNV-1a 64 reference value for "hello".
        assert_eq!(fnv1a64(b"hello"), 0xa430_d846_80aa_bd0b);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
