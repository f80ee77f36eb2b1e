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
//!    epoch directory: created new, written once with a trailing checksum,
//!    and synced. No store file is ever renamed or rewritten;
//! 2. a barrier proves every slot file's bytes are durable;
//! 3. rank 0 writes the epoch manifest (`manifest.ckpt`) the same way, then
//!    syncs the epoch directory once (every file's entry) and the store
//!    root once (the epoch directory's entry). The manifest's bytes,
//!    durable and checksum-valid, **are** the commit point: an epoch without
//!    a readable, checksum-valid manifest does not exist as far as recovery
//!    is concerned.
//!
//! A crash at any instant therefore leaves the newest committed epoch or the
//! one before it — never a half-visible state: a manifest torn by the crash
//! fails its checksum, and every slot it names was durable before it was
//! written. Torn or corrupted files are detected by checksum and reported as
//! typed [`DurabilityError`]s; [`CheckpointStore::recover`] falls back to
//! the newest older epoch that verifies. The tests check this on every
//! crash state a stated persistence model allows, enumerated from the
//! operation log of a killed and resumed run; that enumeration is what
//! shows each of the protocol's syncs is needed, and that the lockfile
//! needs none.
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
//! Epoch sequence numbers are monotonic across checkpoint restarts and
//! process resumes, and a torn epoch keeps its number: a resume that falls
//! back past it rolls the iteration back and commits the same iteration
//! again under a newer number, so iteration numbers alone could not order
//! epochs. After each commit every epoch
//! older than the previous one is pruned, keeping a fallback for torn-write
//! recovery without unbounded disk growth.
//!
//! Every byte format the store writes is encoded here: slot files,
//! manifests, and the job spec each manifest embeds for `JobEngine::resume`.

use crate::config::{PassFrequency, SolverConfig};
use crate::service::{JobSpec, SolverMethod};
use ptycho_array::Array3;
use ptycho_cluster::{CrashPhase, FaultCursor, FaultPolicy, MembershipView};
use ptycho_fft::{Complex, Real};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use std::io::Write as _;
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic + version prefixes for the two file types.
const SLOT_MAGIC: &[u8; 4] = b"PTS1";
const MANIFEST_MAGIC: &[u8; 4] = b"PTM1";
const FORMAT_VERSION: u32 = 3;

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
    /// The fault policy's process-kill injection struck right after this
    /// commit (see `FaultPolicy::kill_process_at_barrier`): the epoch is
    /// committed, the simulated process is dead, and the engine must
    /// surface `CommError::ProcessKilled`.
    SimulatedCrash {
        /// The epoch sequence number the kill struck at.
        seq: u64,
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
                let epochs: Vec<String> = rejected
                    .iter()
                    .map(|(seq, why)| format!("epoch {seq}: {why}"))
                    .collect();
                if epochs.is_empty() {
                    write!(f, "no valid checkpoint epoch (the store is empty)")
                } else {
                    write!(f, "no valid checkpoint epoch ({})", epochs.join("; "))
                }
            }
            DurabilityError::SimulatedCrash { seq } => {
                write!(f, "simulated process kill after checkpoint commit {seq}")
            }
            DurabilityError::Locked { path, owner_pid } => write!(
                f,
                "checkpoint store is locked by live process {owner_pid} ({})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash, byte by byte — the volume digest the CI smoke
/// compares. Hand-rolled because the build environment is offline.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
    })
}

/// The store's file checksum: FNV-1a over the bytes taken as little-endian
/// `u64` words, then the tail bytes one at a time. One dependent multiply
/// per word, not per byte. Each step is a bijection of the running hash, so
/// any change confined to one word always changes the checksum.
fn frame_checksum(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let hash = words.fold(FNV_OFFSET, |hash, word| {
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        (hash ^ word).wrapping_mul(FNV_PRIME)
    });
    tail.iter().fold(hash, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
    })
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

    /// Appends an optional value as [`ByteReader::get_opt`] reads it: tag
    /// `0` when absent, tag `1` followed by what `write` appends.
    pub(crate) fn put_opt<T>(&mut self, value: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match value {
            None => self.put_u8(0),
            Some(value) => {
                self.put_u8(1);
                write(self, value);
            }
        }
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

    /// A decode error at this payload's path.
    fn corrupt(&self, detail: impl Into<String>) -> DurabilityError {
        DurabilityError::Corrupt {
            path: self.path.to_path_buf(),
            detail: detail.into(),
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
            tag => Err(self.corrupt(format!("unknown option tag {tag}"))),
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

    /// Reads an element count and checks that `count` elements of `width`
    /// bytes each fit in the bytes left, so a corrupt prefix is refused
    /// before anything is reserved for it.
    pub(crate) fn get_count(&mut self, width: usize) -> Result<usize, DurabilityError> {
        let count = self.get_u64()?;
        let left = (self.buf.len() - self.pos) as u64;
        let bytes = count.checked_mul(width as u64);
        if bytes.is_none_or(|bytes| bytes > left) {
            return Err(self.corrupt("implausible length prefix"));
        }
        Ok(count as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DurabilityError> {
        let len = self.get_count(1)?;
        self.take(len)
    }

    /// True when every payload byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// A value that can round-trip through a checkpoint file bit-identically.
/// The engine checkpoints each rank's complex `f32` tile volume through the
/// [`Array3`] implementation, and hashes stitched `f64` results with it.
pub trait CheckpointPayload: Sized {
    /// Appends the value's exact encoding.
    fn encode(&self, out: &mut ByteWriter);
    /// Decodes a value previously written by [`CheckpointPayload::encode`].
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DurabilityError>;
}

/// A complex volume at either precision: its shape as three `u64`s, then
/// every value's `re, im` as the little-endian bit patterns of `R` itself —
/// 16 bytes a value for a [`CArray3`](ptycho_fft::CArray3), 8 for complex
/// `f32`.
impl<R: Real> CheckpointPayload for Array3<Complex<R>> {
    fn encode(&self, out: &mut ByteWriter) {
        let (depth, rows, cols) = self.shape();
        out.put_u64(depth as u64);
        out.put_u64(rows as u64);
        out.put_u64(cols as u64);
        let width = size_of::<R>();
        for value in self.as_slice() {
            for part in [value.re, value.im] {
                out.buf
                    .extend_from_slice(&part.bit_pattern().to_le_bytes()[..width]);
            }
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
            .ok_or_else(|| reader.corrupt("implausible volume shape"))?;
        // Take the payload before allocating, so a shape the bytes cannot
        // fill is refused without reserving memory for it.
        let width = size_of::<R>();
        let bytes = reader.take(len * 2 * width)?;
        let part = |le: &[u8]| {
            let mut word = [0; 8];
            word[..width].copy_from_slice(le);
            R::from_bit_pattern(u64::from_le_bytes(word))
        };
        let mut volume = Array3::full(depth, rows, cols, Complex::ZERO);
        let pairs = bytes.chunks_exact(2 * width);
        for (value, pair) in volume.as_mut_slice().iter_mut().zip(pairs) {
            let (re, im) = pair.split_at(width);
            *value = Complex::new(part(re), part(im));
        }
        Ok(volume)
    }
}

/// Decodes a whole payload: a `T` that leaves no byte of `bytes` unread
/// (`path` labels the error). A slot state the engine restores from.
pub(crate) fn decode_exactly<T: CheckpointPayload>(
    bytes: &[u8],
    path: &Path,
) -> Result<T, DurabilityError> {
    let mut reader = ByteReader::new(bytes, path);
    let value = T::decode(&mut reader)?;
    if !reader.is_exhausted() {
        return Err(reader.corrupt("trailing bytes after the payload"));
    }
    Ok(value)
}

/// One rank's durable checkpoint: everything the engine's in-memory
/// `CheckpointSlot` holds, with the tile volume kept as opaque
/// [`CheckpointPayload`] bytes so the store never needs the volume's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotRecord {
    /// First iteration the restored state has *not* yet run.
    pub iteration: usize,
    /// The rank's per-iteration cost history up to the checkpoint.
    pub costs: Vec<f64>,
    /// The rank's fault-decision counters, when a fault harness is
    /// installed.
    pub cursor: Option<FaultCursor>,
    /// The rank's halo-extended tile volume, encoded via
    /// [`CheckpointPayload`].
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
        w.put_opt(self.cursor.as_ref(), |w, cursor| {
            w.put_u64(cursor.total_sends);
            w.put_u64(cursor.streams.len() as u64);
            for &(to, tag, next) in &cursor.streams {
                w.put_u64(to as u64);
                w.put_u64(tag);
                w.put_u64(next);
            }
        });
        w.put_bytes(&self.state);
        w.into_bytes()
    }

    fn decode(payload: &[u8], path: &Path) -> Result<Self, DurabilityError> {
        let mut r = ByteReader::new(payload, path);
        let iteration = r.get_len(u32::MAX as usize)?;
        let cost_count = r.get_count(8)?;
        let mut costs = Vec::with_capacity(cost_count);
        for _ in 0..cost_count {
            costs.push(r.get_f64()?);
        }
        let cursor = r.get_opt(|r| {
            let total_sends = r.get_u64()?;
            let stream_count = r.get_count(24)?;
            let mut streams = Vec::with_capacity(stream_count);
            for _ in 0..stream_count {
                let to = r.get_len(u32::MAX as usize)?;
                let tag = r.get_u64()?;
                let next = r.get_u64()?;
                streams.push((to, tag, next));
            }
            Ok(FaultCursor {
                total_sends,
                streams,
            })
        })?;
        let state = r.get_bytes()?.to_vec();
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after slot payload"));
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
/// a resumed process needs, plus the encoded job spec so
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
    /// The service-level job spec, in this module's spec encoding — opaque
    /// to the store.
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
        let slot_count = r.get_count(8)?;
        if slot_count == 0 {
            return Err(r.corrupt("manifest records zero slots"));
        }
        let mut assignment = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            assignment.push(r.get_len(u32::MAX as usize)?);
        }
        let spare_count = r.get_count(8)?;
        let mut spares = Vec::with_capacity(spare_count);
        for _ in 0..spare_count {
            spares.push(r.get_len(u32::MAX as usize)?);
        }
        let dead_count = r.get_count(8)?;
        let mut dead = Vec::with_capacity(dead_count);
        for _ in 0..dead_count {
            dead.push(r.get_len(u32::MAX as usize)?);
        }
        let spec = r.get_bytes()?.to_vec();
        if !r.is_exhausted() {
            return Err(r.corrupt("trailing bytes after manifest payload"));
        }
        // `MembershipView::from_parts` asserts each node holds one role; a
        // manifest that breaks that is corrupt, not a panic.
        let mut seen = std::collections::HashSet::new();
        let mut nodes = assignment.iter().chain(&spares).chain(&dead);
        if !nodes.all(|&node| seen.insert(node)) {
            return Err(r.corrupt("manifest names a node in more than one membership role"));
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

/// Current encoding version of the manifest-embedded job spec; bytes of any
/// other version are refused.
const SPEC_VERSION: u8 = 4;

/// Encodes everything [`JobEngine::resume`] needs to rebuild the job from
/// the checkpoint directory alone. The dataset is stored as its synthesis
/// recipe — the synthesized acquisition is deterministic, so the recipe
/// *is* the data. Embedded opaquely in every
/// [`EpochManifest`].
///
/// [`JobEngine::resume`]: crate::service::JobEngine::resume
pub(crate) fn encode_spec(spec: &JobSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(SPEC_VERSION);
    let synth = spec.dataset.synthetic_config();
    w.put_u64(synth.object_px as u64);
    w.put_u64(synth.slices as u64);
    w.put_u64(synth.scan_grid.0 as u64);
    w.put_u64(synth.scan_grid.1 as u64);
    w.put_u64(synth.window_px as u64);
    w.put_opt(synth.dose, ByteWriter::put_f64);
    w.put_f64(synth.defocus_pm);
    w.put_u64(synth.seed);
    let c = &spec.config;
    w.put_u64(c.iterations as u64);
    w.put_f64(c.step_relaxation);
    w.put_u64(c.halo_px as u64);
    let (tag, times) = match c.pass_frequency {
        PassFrequency::EveryProbe => (0, 0),
        PassFrequency::PerIteration(times) => (1, times),
    };
    w.put_u8(tag);
    w.put_u64(times as u64);
    w.put_u8(c.local_updates as u8);
    w.put_u64(c.hve_extra_probe_rows as u64);
    w.put_u64(c.hve_exchange_period as u64);
    w.put_u64(spec.grid.0 as u64);
    w.put_u64(spec.grid.1 as u64);
    w.put_u8(match spec.method {
        SolverMethod::GradientDecomposition => 0,
        SolverMethod::HaloVoxelExchange => 1,
    });
    w.put_u64(spec.priority as i64 as u64);
    w.put_opt(spec.fault_policy.as_ref(), |w, policy| {
        w.put_u64(policy.seed);
        w.put_f64(policy.drop_probability);
        w.put_opt(policy.only_tag, ByteWriter::put_u64);
        w.put_opt(policy.drop_exact, |w, (from, to, tag, seq)| {
            w.put_u64(from as u64);
            w.put_u64(to as u64);
            w.put_u64(tag);
            w.put_u64(seq);
        });
        w.put_opt(policy.kill, |w, (node, after_sends)| {
            w.put_u64(node as u64);
            w.put_u64(after_sends);
        });
        w.put_opt(policy.process_kill, |w, (seq, phase)| {
            w.put_u64(seq);
            w.put_u8(match phase {
                CrashPhase::AfterRename => 2,
            });
        });
    });
    w.into_bytes()
}

/// Decodes a manifest-embedded spec, refusing a recipe synthesis cannot run;
/// the returned closure synthesizes the dataset and builds a submittable
/// [`JobSpec`] (telemetry, checkpoint directory, and resume state are not
/// part of the encoding; the caller attaches them). `path` labels errors.
pub(crate) fn decode_spec(
    bytes: &[u8],
    path: &Path,
) -> Result<impl FnOnce() -> JobSpec, DurabilityError> {
    let mut r = ByteReader::new(bytes, path);
    let version = r.get_u8()?;
    if version != SPEC_VERSION {
        return Err(r.corrupt(format!(
            "unsupported spec version {version} (expected {SPEC_VERSION})"
        )));
    }
    let synth = SyntheticConfig {
        object_px: r.get_u64()? as usize,
        slices: r.get_u64()? as usize,
        scan_grid: (r.get_u64()? as usize, r.get_u64()? as usize),
        window_px: r.get_u64()? as usize,
        dose: r.get_opt(ByteReader::get_f64)?,
        defocus_pm: r.get_f64()?,
        seed: r.get_u64()?,
    };
    let config = SolverConfig {
        iterations: r.get_u64()? as usize,
        step_relaxation: r.get_f64()?,
        halo_px: r.get_u64()? as usize,
        pass_frequency: match (r.get_u8()?, r.get_u64()?) {
            (0, 0) => PassFrequency::EveryProbe,
            (0, times) => {
                return Err(r.corrupt(format!("every-probe pass frequency with count {times}")))
            }
            (1, times) => PassFrequency::PerIteration(times as usize),
            (tag, _) => return Err(r.corrupt(format!("unknown pass-frequency tag {tag}"))),
        },
        local_updates: match r.get_u8()? {
            0 => false,
            1 => true,
            byte => return Err(r.corrupt(format!("unknown local-updates byte {byte}"))),
        },
        hve_extra_probe_rows: r.get_u64()? as usize,
        hve_exchange_period: r.get_u64()? as usize,
    };
    let grid = (r.get_u64()? as usize, r.get_u64()? as usize);
    let method = match r.get_u8()? {
        0 => SolverMethod::GradientDecomposition,
        1 => SolverMethod::HaloVoxelExchange,
        tag => return Err(r.corrupt(format!("unknown solver-method tag {tag}"))),
    };
    let word = r.get_u64()?;
    let Ok(priority) = i32::try_from(word as i64) else {
        return Err(r.corrupt(format!("priority word {word:#x} is not an i32")));
    };
    let fault_policy = r.get_opt(|r| {
        Ok(FaultPolicy {
            seed: r.get_u64()?,
            drop_probability: r.get_f64()?,
            only_tag: r.get_opt(ByteReader::get_u64)?,
            drop_exact: r.get_opt(|r| {
                Ok((
                    r.get_u64()? as usize,
                    r.get_u64()? as usize,
                    r.get_u64()?,
                    r.get_u64()?,
                ))
            })?,
            kill: r.get_opt(|r| Ok((r.get_u64()? as usize, r.get_u64()?)))?,
            process_kill: r.get_opt(|r| {
                let seq = r.get_u64()?;
                let phase = match r.get_u8()? {
                    2 => CrashPhase::AfterRename,
                    tag => return Err(r.corrupt(format!("unknown crash-phase tag {tag}"))),
                };
                Ok((seq, phase))
            })?,
        })
    })?;
    if !r.is_exhausted() {
        return Err(r.corrupt("trailing bytes after the job spec"));
    }
    if let Some(reason) = synth.refusal_reason() {
        return Err(r.corrupt(format!("unsynthesizable recipe: {reason}")));
    }
    // The synthesized acquisition is deterministic: re-running the recipe
    // reproduces the exact dataset the killed process was reconstructing.
    Ok(move || JobSpec {
        method,
        priority,
        fault_policy,
        ..JobSpec::new(Dataset::synthesize(synth), config, grid)
    })
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
    /// One past the newest epoch a slot file was written into.
    written: AtomicU64,
    /// The lockfile this instance owns and must remove on drop.
    lock_path: PathBuf,
    /// Every file operation the store performs goes through here.
    fs: Box<dyn StoreFs>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`, taking the
    /// single-writer lock. The next epoch sequence number continues above
    /// everything already on disk — committed or torn — so sequence numbers
    /// never repeat across restarts.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        Self::open_on(Box::new(StdFs), dir.into())
    }

    /// [`CheckpointStore::open`] over the file operations `fs`.
    fn open_on(fs: Box<dyn StoreFs>, dir: PathBuf) -> Result<Self, DurabilityError> {
        create_dir_durably(&*fs, &dir).map_err(|e| DurabilityError::io(&dir, e))?;
        let lock_path = acquire_lock(&*fs, &dir)?;
        let next_seq = list_epochs(&*fs, &dir)?
            .into_iter()
            .max()
            .map_or(0, |m| m + 1);
        Ok(Self {
            next_seq: AtomicU64::new(next_seq),
            written: AtomicU64::new(next_seq),
            dir,
            lock_path,
            fs,
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

    /// Moves [`CheckpointStore::next_seq`] past every epoch a slot file was
    /// written into without a commit, so that an attempt retried after a
    /// failure mid-persist writes under a fresh sequence number: the store
    /// never writes a file twice.
    pub(crate) fn skip_uncommitted(&self) {
        let written = self.written.load(Ordering::SeqCst);
        self.next_seq.fetch_max(written, Ordering::SeqCst);
    }

    fn epoch_dir(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("epoch-{seq:010}"))
    }

    /// Writes one rank's record into the (not yet committed) epoch `seq`
    /// as a new file and syncs it. Returns the file size in bytes for
    /// telemetry. Safe to call concurrently from different ranks; the
    /// epoch directory is created idempotently, and its entries are made
    /// durable by [`CheckpointStore::commit`].
    pub fn write_slot(
        &self,
        seq: u64,
        slot: usize,
        record: &SlotRecord,
    ) -> Result<u64, DurabilityError> {
        self.written.fetch_max(seq + 1, Ordering::SeqCst);
        let dir = self.epoch_dir(seq);
        match self.fs.create_dir(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(DurabilityError::io(&dir, e)),
        }
        let path = dir.join(format!("slot-{slot}.ckpt"));
        let bytes = frame_file(SLOT_MAGIC, &record.encode());
        self.write_durably(&path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Commits epoch `manifest.seq`: writes and syncs the manifest — the
    /// commit point — then syncs the epoch directory, which makes every
    /// file's entry durable, and the store root, which makes the epoch
    /// directory's entry durable. Then advances the sequence counter and
    /// prunes epochs older than the previous one. Call it only once every
    /// slot file of the epoch is written.
    ///
    /// `crash` injects a whole-process kill right after all of that (see
    /// [`CrashPhase`]): the disk holds exactly what a plain commit leaves,
    /// and the call returns [`DurabilityError::SimulatedCrash`]. Every
    /// other crash state is the tests' to make; the store never writes a
    /// torn file.
    pub fn commit(
        &self,
        manifest: &EpochManifest,
        crash: Option<CrashPhase>,
    ) -> Result<(), DurabilityError> {
        let seq = manifest.seq;
        let dir = self.epoch_dir(seq);
        let bytes = frame_file(MANIFEST_MAGIC, &manifest.encode());
        self.write_durably(&dir.join("manifest.ckpt"), &bytes)?;
        for dir in [&dir, &self.dir] {
            self.fs
                .sync_dir(dir)
                .map_err(|e| DurabilityError::io(dir, e))?;
        }
        self.next_seq.store(seq + 1, Ordering::SeqCst);
        self.prune(seq);
        match crash {
            Some(CrashPhase::AfterRename) => Err(DurabilityError::SimulatedCrash { seq }),
            None => Ok(()),
        }
    }

    /// Creates `path`, which must not exist yet, writes `bytes` to it and
    /// syncs it. Its directory entry is left to the caller to sync.
    fn write_durably(&self, path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
        let io_err = |e| DurabilityError::io(path, e);
        self.fs.create_new(path, bytes).map_err(io_err)?;
        self.fs.sync_file(path).map_err(io_err)
    }

    /// Removes every epoch directory older than `committed_seq`'s
    /// predecessor. Best-effort: pruning failures never fail a commit.
    fn prune(&self, committed_seq: u64) {
        let Ok(epochs) = list_epochs(&*self.fs, &self.dir) else {
            return;
        };
        for seq in epochs {
            if seq + KEEP_EPOCHS <= committed_seq {
                let _ = self.fs.remove_tree(&self.epoch_dir(seq));
            }
        }
    }

    /// Scans the store for the newest epoch that verifies end to end:
    /// manifest readable and checksum-valid, every slot file present,
    /// checksum-valid, and agreeing with the manifest's iteration. Epochs
    /// that fail are reported in [`Recovery::rejected`] (typed, never a
    /// panic) and the scan falls back to the next older epoch.
    pub fn recover(&self) -> Result<Recovery, DurabilityError> {
        let mut epochs = list_epochs(&*self.fs, &self.dir)?;
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
        let payload = self.read_verified(&manifest_path, MANIFEST_MAGIC)?;
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
            let payload = self.read_verified(&path, SLOT_MAGIC)?;
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

    /// Reads a framed file and returns its verified payload.
    fn read_verified(&self, path: &Path, magic: &[u8; 4]) -> Result<Vec<u8>, DurabilityError> {
        let bytes = self
            .fs
            .read(path)
            .map_err(|e| DurabilityError::io(path, e))?;
        unframe(&bytes, path, magic).map(<[u8]>::to_vec)
    }
}

impl Drop for CheckpointStore {
    /// Releases the single-writer lock. Removal failures are swallowed: a
    /// lock that survives (say, the directory was already deleted) is at
    /// worst a stale lock, which the next opener detects and reclaims.
    fn drop(&mut self) {
        let _ = self.fs.remove_file(&self.lock_path);
    }
}

impl DurabilityError {
    fn io(path: &Path, error: std::io::Error) -> Self {
        DurabilityError::Io {
            path: path.to_path_buf(),
            detail: error.to_string(),
        }
    }
}

/// Creates `dir` and any missing ancestors, syncing the parent of each
/// directory it creates so that the new entry survives a crash.
fn create_dir_durably(fs: &dyn StoreFs, dir: &Path) -> std::io::Result<()> {
    let parent = match dir.parent() {
        Some(parent) if parent.as_os_str().is_empty() => Path::new("."),
        Some(parent) => parent,
        None => return Ok(()),
    };
    match fs.create_dir(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            create_dir_durably(fs, parent)?;
            match fs.create_dir(dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Err(e) => return Err(e),
    }
    fs.sync_dir(parent)
}

/// Creates the store's lockfile exclusively, handling the stale-lock case:
/// a recorded pid that no longer runs is a crash leftover and is reclaimed;
/// a live one (including this process — a second store instance over the
/// same root) is a real conflict.
fn acquire_lock(fs: &dyn StoreFs, dir: &Path) -> Result<PathBuf, DurabilityError> {
    let lock_path = dir.join(LOCK_FILE);
    let owner_pid = || {
        let text = String::from_utf8(fs.read(&lock_path).ok()?).ok()?;
        text.trim().parse::<u32>().ok()
    };
    // Two tries: the second runs only after a stale lock was removed.
    for _ in 0..2 {
        let pid = std::process::id().to_string();
        match fs.create_new(&lock_path, pid.as_bytes()) {
            // Not synced: a lock only excludes live processes, and none
            // survives a power loss.
            Ok(()) => return Ok(lock_path),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => match owner_pid() {
                Some(pid) if fs.pid_is_alive(pid) => {
                    return Err(DurabilityError::Locked {
                        path: lock_path,
                        owner_pid: pid,
                    });
                }
                // Dead owner (or an unreadable lock, which only a crash
                // mid-acquisition leaves behind): reclaim.
                _ => match fs.remove_file(&lock_path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(DurabilityError::io(&lock_path, e)),
                },
            },
            Err(e) => return Err(DurabilityError::io(&lock_path, e)),
        }
    }
    // Both tries hit AlreadyExists: another opener reclaimed-and-locked
    // between ours. That opener is alive by definition.
    Err(DurabilityError::Locked {
        owner_pid: owner_pid().unwrap_or(0),
        path: lock_path,
    })
}

/// Frames a payload as a complete checkpoint file: magic, version, payload,
/// trailing [`frame_checksum`] over everything before it.
fn frame_file(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 16);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(payload);
    let checksum = frame_checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Verifies a framed file's magic, version and checksum; returns its
/// payload. `path` labels the error.
fn unframe<'a>(bytes: &'a [u8], path: &Path, magic: &[u8; 4]) -> Result<&'a [u8], DurabilityError> {
    let corrupt = |detail: String| DurabilityError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < 16 {
        return Err(corrupt("file shorter than its framing".to_string()));
    }
    if &bytes[0..4] != magic {
        return Err(corrupt("bad magic".to_string()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(format!("unsupported format version {version}")));
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if stored != frame_checksum(&bytes[..body_end]) {
        return Err(corrupt(
            "checksum mismatch (torn or corrupted write)".to_string(),
        ));
    }
    Ok(&bytes[8..body_end])
}

/// Epoch sequence numbers present under `dir` (committed or not), unsorted.
fn list_epochs(fs: &dyn StoreFs, dir: &Path) -> Result<Vec<u64>, DurabilityError> {
    let names = fs.list_dir(dir).map_err(|e| DurabilityError::io(dir, e))?;
    Ok(names
        .iter()
        .filter_map(|name| name.strip_prefix("epoch-")?.parse::<u64>().ok())
        .collect())
}

/// Every file operation the store performs. Production runs them on
/// `std::fs` ([`StdFs`]); the tests run them on an in-memory file system
/// that logs each one and enumerates the crash states the log allows.
trait StoreFs: Send + Sync + std::fmt::Debug {
    /// Creates one directory; its parent must exist.
    fn create_dir(&self, path: &Path) -> std::io::Result<()>;
    /// Creates a file that must not exist yet and writes `bytes` to it.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes a file's data durable.
    fn sync_file(&self, path: &Path) -> std::io::Result<()>;
    /// Makes a directory's entries durable: the creates and removals in
    /// it.
    fn sync_dir(&self, path: &Path) -> std::io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// Removes a directory and everything under it.
    fn remove_tree(&self, path: &Path) -> std::io::Result<()>;
    /// The names in a directory that are valid UTF-8.
    fn list_dir(&self, path: &Path) -> std::io::Result<Vec<String>>;
    /// A file's bytes.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Whether the process `pid`, which wrote a lockfile, still runs.
    fn pid_is_alive(&self, pid: u32) -> bool;
}

/// The store's file operations on the real file system.
#[derive(Debug)]
struct StdFs;

impl StoreFs for StdFs {
    fn create_dir(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir(path)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?
            .write_all(bytes)
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .sync_all()
    }

    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_tree(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    /// On Linux this is a procfs probe — std-only, no new dependencies.
    /// Elsewhere liveness cannot be checked cheaply, so every recorded pid
    /// is conservatively treated as alive (a stale lock then needs manual
    /// removal rather than risking two writers).
    fn pid_is_alive(&self, pid: u32) -> bool {
        if cfg!(target_os = "linux") {
            Path::new(&format!("/proc/{pid}")).exists()
        } else {
            true
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::worker::TileVolume;
    use ptycho_fft::{CArray3, Complex32, Complex64};
    use std::collections::BTreeMap;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ptycho-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A tile volume, as the engine checkpoints it.
    fn sample_volume(seed: u64) -> TileVolume {
        TileVolume::from_fn(2, 3, 4, |d, r, c| Complex32 {
            re: (seed as f32) + (d * 100 + r * 10 + c) as f32 * 0.5,
            im: -((d + r + c) as f32) / 3.0,
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
            let volume: TileVolume =
                decode_exactly(&record.state, Path::new("state")).expect("volume decodes");
            assert_eq!(volume.as_slice(), sample_volume(slot as u64).as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_volume_its_bytes_cannot_fill_is_truncated() {
        let decode = |bytes: &[u8]| TileVolume::decode(&mut ByteReader::new(bytes, Path::new("v")));
        let mut out = ByteWriter::new();
        sample_volume(1).encode(&mut out);
        let bytes = out.into_bytes();
        assert!(decode(&bytes).is_ok());
        for len in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..len]), Err(DurabilityError::Corrupt { detail, .. })
                    if detail == "payload truncated"),
                "at {len}"
            );
        }
        // A header claiming 2^30 voxels and no payload: refused, not
        // allocated for.
        let mut out = ByteWriter::new();
        for dim in [1 << 10, 1 << 10, 1 << 10] {
            out.put_u64(dim);
        }
        assert!(matches!(
            decode(&out.into_bytes()),
            Err(DurabilityError::Corrupt { detail, .. }) if detail == "payload truncated"
        ));
    }

    /// Every bit of every value survives the volume codec at either
    /// precision: `±0.0`, NaNs with payloads (quiet and signalling),
    /// subnormals and infinities included. A `CArray3` keeps the layout it
    /// has always had, `put_f64` per part, so result hashes do not move.
    #[test]
    fn volumes_round_trip_bit_for_bit_at_both_precisions() {
        let f64s = [
            0.0,
            -0.0,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            -f64::MAX,
        ];
        let f32s = [
            0.0,
            -0.0,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 4.0,
            f32::NEG_INFINITY,
            f32::MAX,
        ];
        let n = f64s.len();
        let wide = CArray3::from_fn(1, 2, n, |_, r, c| {
            Complex64::new(f64s[(c + r) % n], f64s[n - 1 - c])
        });
        let narrow = TileVolume::from_fn(1, 2, n, |_, r, c| {
            Complex32::new(f32s[(c + r) % n], f32s[n - 1 - c])
        });

        let mut out = ByteWriter::new();
        wide.encode(&mut out);
        let bytes = out.into_bytes();
        let mut by_part = ByteWriter::new();
        for dim in [1, 2, n] {
            by_part.put_u64(dim as u64);
        }
        for v in wide.as_slice() {
            by_part.put_f64(v.re);
            by_part.put_f64(v.im);
        }
        assert_eq!(bytes, by_part.into_bytes(), "the f64 layout");
        let back: CArray3 = decode_exactly(&bytes, Path::new("wide")).expect("decodes");
        let bits = |v: &CArray3| -> Vec<u64> {
            v.iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        assert_eq!(bits(&back), bits(&wide));

        let mut out = ByteWriter::new();
        narrow.encode(&mut out);
        let bytes = out.into_bytes();
        assert_eq!(bytes.len(), 3 * 8 + narrow.len() * 8, "8 bytes a value");
        let back: TileVolume = decode_exactly(&bytes, Path::new("narrow")).expect("decodes");
        let bits = |v: &TileVolume| -> Vec<u32> {
            v.iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        assert_eq!(bits(&back), bits(&narrow));

        // Each precision's bytes read as the other's: a shape the f32 bytes
        // cannot fill, and f64 bytes with half of them left over.
        let mut out = ByteWriter::new();
        narrow.encode(&mut out);
        assert!(matches!(
            decode_exactly::<CArray3>(&out.into_bytes(), Path::new("v")),
            Err(DurabilityError::Corrupt { detail, .. }) if detail == "payload truncated"
        ));
        let mut out = ByteWriter::new();
        wide.encode(&mut out);
        assert!(matches!(
            decode_exactly::<TileVolume>(&out.into_bytes(), Path::new("v")),
            Err(DurabilityError::Corrupt { detail, .. })
                if detail == "trailing bytes after the payload"
        ));
    }

    /// A file as a store writing format 1 or 2 framed it: a byte-wise
    /// FNV-1a checksum.
    fn frame_file_at(version: u32, magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut bytes = frame_file(magic, payload);
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let body_end = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Format 1 held each slot's tile volume as complex `f64`; format 2
    /// held it as complex `f32` under a byte-wise checksum. Their files — a
    /// slot, or a manifest — are refused with a typed `Corrupt`, and
    /// recovery reports the epoch rejected instead of resuming it.
    #[test]
    fn files_framed_at_format_version_1_are_refused() {
        let mut wide = ByteWriter::new();
        sample_volume(0).map(|v| v.widen()).encode(&mut wide);
        let slots = [
            (
                1,
                SlotRecord {
                    state: wide.into_bytes(),
                    ..sample_record(0, 1)
                },
            ),
            (2, sample_record(0, 1)),
        ];
        for (version, slot) in slots {
            let old_files = [
                ("slot-0.ckpt", SLOT_MAGIC, slot.encode()),
                (
                    "manifest.ckpt",
                    MANIFEST_MAGIC,
                    sample_manifest(0, 1, 1, b"spec").encode(),
                ),
            ];
            for (name, magic, payload) in old_files {
                let dir = temp_dir(&format!("format-{version}-{name}"));
                let store = CheckpointStore::open(&dir).unwrap();
                commit_epoch(&store, 0, 1, 1);
                let path = dir.join("epoch-0000000000").join(name);
                std::fs::write(&path, frame_file_at(version, magic, &payload)).unwrap();
                let refusal = format!("unsupported format version {version}");
                assert_eq!(
                    unframe(&std::fs::read(&path).unwrap(), &path, magic),
                    Err(DurabilityError::Corrupt {
                        path: path.clone(),
                        detail: refusal.clone(),
                    }),
                    "{name} at format {version}"
                );
                let recovery = store.recover().expect("the scan itself succeeds");
                assert!(recovery.epoch.is_none(), "{name}");
                assert_eq!(recovery.rejected.len(), 1, "{name}");
                assert!(
                    recovery.rejected[0].1.contains(&refusal),
                    "{name}: {}",
                    recovery.rejected[0].1
                );
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
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

    /// A slot file is never written twice: once a failed attempt left
    /// slot files in an uncommitted epoch, the retry writes a fresh one.
    #[test]
    fn a_retried_attempt_persists_under_a_fresh_sequence_number() {
        let dir = temp_dir("retry");
        let store = CheckpointStore::open(&dir).unwrap();
        commit_epoch(&store, 0, 1, 2);
        store.write_slot(1, 0, &sample_record(0, 2)).unwrap();
        assert!(matches!(
            store.write_slot(1, 0, &sample_record(0, 2)),
            Err(DurabilityError::Io { .. })
        ));
        assert_eq!(store.next_seq(), 1, "only a commit advances the sequence");
        store.skip_uncommitted();
        assert_eq!(store.next_seq(), 2);
        commit_epoch(&store, 2, 2, 2);
        store.skip_uncommitted();
        assert_eq!(
            store.next_seq(),
            3,
            "a committed epoch is not skipped again"
        );
        let epoch = store.recover().unwrap().epoch.expect("epoch 2");
        assert_eq!(epoch.manifest.seq, 2);
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
        let mut remaining = list_epochs(&StdFs, &dir).unwrap();
        remaining.sort_unstable();
        assert_eq!(remaining, vec![2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file under `dir` and its bytes, by path relative to `dir`.
    fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(at) = pending.pop() {
            for entry in std::fs::read_dir(&at).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
                }
            }
        }
        files
    }

    /// A kill armed after the commit point changes nothing on disk: the
    /// store holds the files, bytes and next sequence number a plain
    /// commit leaves, and recovery returns the killed epoch.
    #[test]
    fn a_post_commit_kill_leaves_what_a_plain_commit_leaves() {
        let run = |crash: Option<CrashPhase>| {
            let dir = temp_dir(&format!("post-commit-kill-{}", crash.is_some()));
            let store = CheckpointStore::open(&dir).unwrap();
            commit_epoch(&store, 0, 1, 2);
            for slot in 0..2 {
                store
                    .write_slot(1, slot, &sample_record(slot as u64, 2))
                    .unwrap();
            }
            let outcome = store.commit(&sample_manifest(1, 2, 2, b"spec"), crash);
            let files = files_under(&dir);
            (dir, store, outcome, files)
        };
        let (plain_dir, plain, committed, plain_files) = run(None);
        let (dir, killed, outcome, files) = run(Some(CrashPhase::AfterRename));
        assert_eq!(committed, Ok(()));
        assert_eq!(outcome, Err(DurabilityError::SimulatedCrash { seq: 1 }));
        assert_eq!(files, plain_files);
        assert_eq!(
            files.len(),
            1 + 2 * 3,
            "the lock, and two slots and a manifest in each of two epochs"
        );
        assert_eq!(killed.next_seq(), plain.next_seq());
        assert_eq!(killed.next_seq(), 2);

        let recovery = killed.recover().unwrap();
        assert!(recovery.rejected.is_empty(), "{:?}", recovery.rejected);
        assert_eq!(recovery.epoch.expect("epoch 1").manifest.seq, 1);
        drop((plain, killed));
        for dir in [plain_dir, dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The slot record behind the framed-file golden: it carries a fault
    /// cursor.
    fn golden_slot() -> SlotRecord {
        sample_record(3, 7)
    }

    /// The manifest behind the framed-file golden: it has spares and dead
    /// nodes.
    fn golden_manifest() -> EpochManifest {
        EpochManifest {
            membership: MembershipView::from_parts(5, vec![0, 4, 2], vec![6, 7], vec![1, 3]),
            ..sample_manifest(9, 7, 3, b"opaque spec")
        }
    }

    /// Offset of `assignment[1]`'s low byte in a manifest payload: seq,
    /// iteration, attempt index, restarts, substitutions, membership epoch,
    /// slot count and `assignment[0]` precede it.
    const ASSIGNMENT_1: usize = 8 + 8 + 1 + 8 + 8 + 8 + 8 + 8;

    #[test]
    fn a_manifest_naming_a_node_twice_is_corrupt_and_recovery_falls_back() {
        let mut payload = golden_manifest().encode();
        payload[ASSIGNMENT_1] ^= 4; // [0, 4, 2] becomes [0, 0, 2]
        assert!(matches!(
            EpochManifest::decode(&payload, Path::new("m")),
            Err(DurabilityError::Corrupt { detail, .. })
                if detail == "manifest names a node in more than one membership role"
        ));

        // The same damage behind a valid checksum, in the newest epoch.
        let dir = temp_dir("duplicate-node");
        let store = CheckpointStore::open(&dir).unwrap();
        commit_epoch(&store, 0, 1, 3);
        commit_epoch(&store, 1, 2, 3);
        let mut payload = sample_manifest(1, 2, 3, b"spec").encode();
        payload[ASSIGNMENT_1] ^= 1; // [0, 1, 2] becomes [0, 0, 2]
        let manifest = dir.join("epoch-0000000001").join("manifest.ckpt");
        std::fs::write(&manifest, frame_file(MANIFEST_MAGIC, &payload)).unwrap();

        let recovery = store.recover().unwrap();
        assert_eq!(recovery.rejected.len(), 1);
        assert_eq!(recovery.rejected[0].0, 1);
        assert!(
            recovery.rejected[0]
                .1
                .contains("more than one membership role"),
            "got: {}",
            recovery.rejected[0].1
        );
        assert_eq!(recovery.epoch.expect("fallback").manifest.seq, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_count_the_remaining_bytes_cannot_hold_is_refused_before_reserving() {
        let mut w = ByteWriter::new();
        w.put_u64(0); // iteration
        w.put_u64(1 << 24); // cost count, with no costs after it
        assert!(matches!(
            SlotRecord::decode(&w.into_bytes(), Path::new("s")),
            Err(DurabilityError::Corrupt { detail, .. }) if detail == "implausible length prefix"
        ));
    }

    /// Feeds `decode` every truncation and every single-byte XOR of
    /// `payload`: each must return, `Ok` or `Err`, never panic.
    pub(crate) fn assert_decode_never_panics(
        label: &str,
        payload: &[u8],
        decode: fn(&[u8]) -> bool,
    ) {
        assert!(decode(payload), "{label}: the undamaged payload decodes");
        let survives = |bytes: &[u8]| std::panic::catch_unwind(|| decode(bytes)).is_ok();
        for len in 0..payload.len() {
            assert!(survives(&payload[..len]), "{label}: truncation to {len}");
        }
        let mut bytes = payload.to_vec();
        for at in 0..bytes.len() {
            for mask in 1..=255u8 {
                bytes[at] ^= mask;
                assert!(survives(&bytes), "{label}: byte {at} ^ {mask:#04x}");
                bytes[at] ^= mask;
            }
        }
    }

    #[test]
    fn store_decoders_never_panic_on_truncated_or_flipped_bytes() {
        assert_decode_never_panics("slot", &golden_slot().encode(), |bytes| {
            SlotRecord::decode(bytes, Path::new("s")).is_ok()
        });
        assert_decode_never_panics("manifest", &golden_manifest().encode(), |bytes| {
            EpochManifest::decode(bytes, Path::new("m")).is_ok()
        });
    }

    /// FNV-1a goldens of whole framed files, so a codec refactor that moves
    /// any on-disk byte — a presence flag, a field order, the framing — is
    /// caught even where it still round-trips. Re-recorded at format 3,
    /// whose checksum is word-wise; the lengths stay 345 and 156.
    #[test]
    fn framed_files_match_their_recorded_bytes() {
        let slot = frame_file(SLOT_MAGIC, &golden_slot().encode());
        let manifest = frame_file(MANIFEST_MAGIC, &golden_manifest().encode());
        assert_eq!(
            (slot.len(), fnv1a64(&slot)),
            (345, 0xb656_e4d8_5cfc_1267),
            "slot file with a fault cursor"
        );
        assert_eq!(
            (manifest.len(), fnv1a64(&manifest)),
            (156, 0x9e9f_8760_c460_ffd3),
            "manifest with spares and dead nodes"
        );
    }

    /// Every truncation and every single-byte XOR of the golden framed
    /// files is refused as `Corrupt` by the framing alone.
    #[test]
    fn every_flip_and_truncation_of_a_framed_file_is_corrupt() {
        let files = [
            (SLOT_MAGIC, frame_file(SLOT_MAGIC, &golden_slot().encode())),
            (
                MANIFEST_MAGIC,
                frame_file(MANIFEST_MAGIC, &golden_manifest().encode()),
            ),
        ];
        let path = Path::new("framed");
        let corrupt = |bytes: &[u8], magic| {
            matches!(
                unframe(bytes, path, magic),
                Err(DurabilityError::Corrupt { .. })
            )
        };
        for (magic, mut bytes) in files {
            assert!(unframe(&bytes, path, magic).is_ok());
            for len in 0..bytes.len() {
                assert!(corrupt(&bytes[..len], magic), "truncation to {len}");
            }
            for at in 0..bytes.len() {
                for mask in 1..=255u8 {
                    bytes[at] ^= mask;
                    assert!(corrupt(&bytes, magic), "byte {at} ^ {mask:#04x}");
                    bytes[at] ^= mask;
                }
            }
        }
    }

    #[test]
    fn the_frame_checksum_takes_words_then_tail_bytes() {
        assert_eq!(frame_checksum(b""), fnv1a64(b""));
        assert_eq!(frame_checksum(b"hello"), fnv1a64(b"hello"));
        let word = u64::from_le_bytes(*b"eight by");
        let by_word = (0xcbf2_9ce4_8422_2325 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        let tail = (by_word ^ b'!' as u64).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(frame_checksum(b"eight by!"), tail);
    }

    #[test]
    fn fnv_checksum_is_stable() {
        // The FNV-1a 64 reference value for "hello".
        assert_eq!(fnv1a64(b"hello"), 0xa430_d846_80aa_bd0b);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    /// Byte offsets of the option tags in a spec whose every optional field
    /// is present ([`full_spec`]).
    const OPTION_TAGS: [(usize, &str); 6] = [
        (41, "dose"),
        (141, "fault_policy"),
        (158, "only_tag"),
        (167, "drop_exact"),
        (200, "kill"),
        (217, "process_kill"),
    ];
    const FULL_SPEC_LEN: usize = 227;

    fn spec(dose: Option<f64>) -> JobSpec {
        let dataset = Dataset::synthesize(SyntheticConfig {
            dose,
            ..SyntheticConfig::tiny()
        });
        let config = SolverConfig {
            iterations: 3,
            halo_px: 20,
            ..SolverConfig::default()
        };
        JobSpec::new(dataset, config, (1, 2))
    }

    fn full_spec() -> JobSpec {
        spec(Some(1e4))
            .with_priority(-3)
            .with_fault_policy(FaultPolicy {
                only_tag: Some(7),
                drop_exact: Some((0, 1, 7, 3)),
                kill: Some((1, 5)),
                process_kill: Some((2, CrashPhase::AfterRename)),
                ..FaultPolicy::reliable(11).drop(0.125)
            })
    }

    fn decode(bytes: &[u8]) -> Result<JobSpec, DurabilityError> {
        decode_spec(bytes, Path::new("spec-under-test")).map(|build| build())
    }

    /// The `Corrupt` detail of a rejected buffer; any other outcome fails.
    fn corrupt_detail(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(DurabilityError::Corrupt { detail, .. }) => detail,
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a damaged spec decoded"),
        }
    }

    fn assert_round_trips(spec: &JobSpec) {
        let bytes = encode_spec(spec);
        let decoded = decode(&bytes).expect("an encoded spec decodes");
        // The dataset recipe has no `PartialEq`; the re-encoding below pins it.
        assert_eq!(decoded.dataset.scan().len(), spec.dataset.scan().len());
        assert_eq!(decoded.config, spec.config);
        assert_eq!(decoded.grid, spec.grid);
        assert_eq!(decoded.method, spec.method);
        assert_eq!(decoded.priority, spec.priority);
        assert_eq!(decoded.fault_policy, spec.fault_policy);
        assert_eq!(encode_spec(&decoded), bytes);
    }

    #[test]
    fn spec_round_trips_through_every_enum_arm() {
        let base = spec(None);
        assert_round_trips(&base);
        assert_round_trips(&full_spec());
        for pass_frequency in [PassFrequency::EveryProbe, PassFrequency::PerIteration(2)] {
            let mut spec = base.clone();
            spec.config.pass_frequency = pass_frequency;
            spec.config.local_updates = false;
            assert_round_trips(&spec);
        }
        for method in [
            SolverMethod::GradientDecomposition,
            SolverMethod::HaloVoxelExchange,
        ] {
            assert_round_trips(&base.clone().with_method(method));
        }
        assert_round_trips(&base.clone().with_fault_policy(FaultPolicy::reliable(3)));
    }

    /// The FNV-1a golden of the whole encoding of [`full_spec`]: every
    /// value, not only the layout's length and tag offsets. Recorded with
    /// the process kill's phase byte 2; the encoder writes no other.
    #[test]
    fn the_full_spec_encodes_to_its_recorded_bytes() {
        let bytes = encode_spec(&full_spec());
        assert_eq!(bytes.len(), FULL_SPEC_LEN);
        let actual = crate::durability::fnv1a64(&bytes);
        assert_eq!(actual, 0xaeea_d576_9315_b78b, "new hash {actual:#018x}");
    }

    /// Only the current layout is read.
    #[test]
    fn a_version_2_spec_is_refused() {
        let mut bytes = encode_spec(&full_spec());
        bytes[0] = 2;
        assert_eq!(
            corrupt_detail(&bytes),
            "unsupported spec version 2 (expected 4)"
        );
    }

    /// Layout 3 is layout 4 plus a delay probability at 158..166; its
    /// bytes are refused by version before anything past byte 0 is read.
    #[test]
    fn a_version_3_spec_is_refused() {
        let mut bytes = encode_spec(&full_spec());
        bytes[0] = 3;
        bytes.splice(158..158, 0.0625f64.to_le_bytes());
        assert_eq!(
            corrupt_detail(&bytes),
            "unsupported spec version 3 (expected 4)"
        );
    }

    #[test]
    fn only_tag_1_means_present() {
        let bytes = encode_spec(&full_spec());
        for (offset, name) in OPTION_TAGS {
            for tag in [2u8, 255] {
                let mut damaged = bytes.clone();
                damaged[offset] = tag;
                assert_eq!(
                    corrupt_detail(&damaged),
                    format!("unknown option tag {tag}"),
                    "{name} tag at {offset}"
                );
            }
        }
    }

    /// A byte the encoder never writes is corrupt, not read as its nearest
    /// meaning: each would re-encode to different bytes.
    #[test]
    fn bytes_the_encoder_never_writes_are_corrupt() {
        let bytes = encode_spec(&full_spec());
        let damaged = |offset: usize, patch: &[u8]| {
            let mut damaged = bytes.clone();
            damaged[offset..offset + patch.len()].copy_from_slice(patch);
            corrupt_detail(&damaged)
        };
        // The pass-frequency tag at 90, its count at 91..99.
        assert_eq!(
            damaged(90, &[0, 3, 0, 0, 0, 0, 0, 0, 0]),
            "every-probe pass frequency with count 3"
        );
        assert_eq!(damaged(99, &[2]), "unknown local-updates byte 2");
        assert_eq!(
            damaged(133, &(1u64 << 31).to_le_bytes()),
            "priority word 0x80000000 is not an i32"
        );
        assert_eq!(
            damaged(133, &(i32::MIN as i64 - 1).to_le_bytes()),
            "priority word 0xffffffff7fffffff is not an i32"
        );
        // The process kill's phase byte at 226, the last: 2 is the only
        // phase.
        assert_eq!(bytes[226], 2);
        for tag in [0u8, 1, 3] {
            assert_eq!(
                damaged(226, &[tag]),
                format!("unknown crash-phase tag {tag}")
            );
        }
    }

    /// Decoding meets every truncation and single-byte XOR of the full spec
    /// with `Ok` or `Corrupt`, never a panic. Nothing is synthesized, so a
    /// mutated size costs at most its refusal.
    #[test]
    fn the_spec_parser_never_panics_on_truncated_or_flipped_bytes() {
        let parses = |bytes: &[u8]| match decode_spec(bytes, Path::new("spec-under-test")) {
            Ok(_) => true,
            Err(DurabilityError::Corrupt { .. }) => false,
            Err(other) => panic!("expected Corrupt, got {other}"),
        };
        crate::durability::tests::assert_decode_never_panics(
            "spec",
            &encode_spec(&full_spec()),
            parses,
        );
    }

    #[test]
    fn trailing_bytes_and_every_truncation_are_corrupt() {
        let bytes = encode_spec(&full_spec());
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(corrupt_detail(&longer), "trailing bytes after the job spec");
        for len in 0..bytes.len() {
            assert_eq!(
                corrupt_detail(&bytes[..len]),
                "payload truncated",
                "at {len}"
            );
        }
    }
}

/// The crash-state enumerator: an in-memory [`StoreFs`] that logs every
/// operation, and a persistence model that lists every disk state a power
/// loss after any prefix of that log can leave (after Pillai et al., "All
/// File Systems Are Not Created Equal", OSDI 2014). The model:
///
/// - a file's data is durable once the file is synced; before that, a
///   crash keeps none of it, a prefix of it, or all of it;
/// - a create or removal is durable once its directory is synced;
///   before that, a crash may or may not have kept it;
/// - unsynced effects reorder only within a sync interval (the operations
///   between two syncs): a crash that keeps any part of an unsynced effect
///   keeps every unsynced effect of every earlier interval whole, and none
///   of any later interval.
///
/// A prefix is taken at none, one byte, half, all but one byte, or all of
/// the data: recovery's verdict on a torn file rests on its framing, whose
/// every truncation the framing tests refuse.
#[cfg(test)]
mod crash_states {
    use super::*;
    use crate::engine::{
        DurabilityHook, IterationProgress, JobContext, ReconstructionResult, RecoveryPolicy,
    };
    use crate::gradient_decomp::solver::GradientDecompositionSolver;
    use ptycho_cluster::{ClusterTopology, LockstepBackend, RankFailure};
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
    use std::io::{Error, ErrorKind};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The store root of every logged run.
    const ROOT: &str = "/store";

    /// One logged operation.
    #[derive(Clone, Debug)]
    enum Op {
        CreateDir(PathBuf),
        /// A file created together with its data.
        Create {
            path: PathBuf,
            inode: u64,
            bytes: Arc<[u8]>,
        },
        SyncFile {
            path: PathBuf,
            inode: u64,
        },
        SyncDir(PathBuf),
        Remove(PathBuf),
        RemoveDir(PathBuf),
        List(PathBuf),
        Read(PathBuf),
        /// Not a file operation: the run reported the epoch whose manifest
        /// it wrote last as committed.
        Acknowledged,
    }

    impl Op {
        /// The directory whose sync makes this operation's entry durable.
        fn entry_dir(&self) -> Option<&Path> {
            match self {
                Op::CreateDir(path)
                | Op::Create { path, .. }
                | Op::Remove(path)
                | Op::RemoveDir(path) => path.parent(),
                _ => None,
            }
        }

        fn is_sync(&self) -> bool {
            matches!(self, Op::SyncFile { .. } | Op::SyncDir(_))
        }

        /// The path the operation acts on.
        fn path(&self) -> Option<&Path> {
            match self {
                Op::CreateDir(path)
                | Op::Create { path, .. }
                | Op::SyncFile { path, .. }
                | Op::SyncDir(path)
                | Op::Remove(path)
                | Op::RemoveDir(path)
                | Op::List(path)
                | Op::Read(path) => Some(path),
                Op::Acknowledged => None,
            }
        }

        /// The operation and the path it acts on.
        fn label(&self) -> String {
            let name = match self {
                Op::CreateDir(_) => "create dir",
                Op::Create { .. } => "create",
                Op::SyncFile { .. } => "sync file",
                Op::SyncDir(_) => "sync dir",
                Op::Remove(_) => "remove",
                Op::RemoveDir(_) => "remove dir",
                Op::List(_) => "list",
                Op::Read(_) => "read",
                Op::Acknowledged => return "commit acknowledged".to_string(),
            };
            format!("{name} {}", self.path().unwrap_or(Path::new("")).display())
        }

        /// The epoch a manifest write belongs to.
        fn manifest_epoch(&self) -> Option<u64> {
            let path = match self {
                Op::Create { path, .. } => path,
                _ => return None,
            };
            let name = path.file_name()?.to_str()?;
            let epoch = path.parent()?.file_name()?.to_str()?;
            name.starts_with("manifest").then_some(())?;
            epoch.strip_prefix("epoch-")?.parse().ok()
        }
    }

    /// A directory tree. A file holds a prefix, `len` bytes long, of the
    /// bytes written to its inode.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Tree {
        dirs: BTreeSet<PathBuf>,
        files: BTreeMap<PathBuf, (u64, usize)>,
    }

    impl Tree {
        fn new() -> Self {
            Tree {
                dirs: [PathBuf::from("/")].into(),
                files: BTreeMap::new(),
            }
        }

        fn has_parent(&self, path: &Path) -> bool {
            path.parent()
                .is_some_and(|parent| self.dirs.contains(parent))
        }

        fn exists(&self, path: &Path) -> bool {
            self.dirs.contains(path) || self.files.contains_key(path)
        }
    }

    #[derive(Debug)]
    struct State {
        tree: Tree,
        /// Every inode's bytes, by inode number.
        data: Vec<Arc<[u8]>>,
        log: Vec<Op>,
        /// True for a disk a crash left: no process that locked it runs.
        rebooted: bool,
    }

    /// An in-memory file system that logs every operation.
    #[derive(Clone, Debug)]
    struct MemFs(Arc<Mutex<State>>);

    fn error(kind: ErrorKind, path: &Path) -> Error {
        Error::new(kind, path.display().to_string())
    }

    impl MemFs {
        fn new() -> Self {
            Self::on(Tree::new(), Vec::new(), false)
        }

        fn on(tree: Tree, data: Vec<Arc<[u8]>>, rebooted: bool) -> Self {
            MemFs(Arc::new(Mutex::new(State {
                tree,
                data,
                log: Vec::new(),
                rebooted,
            })))
        }

        fn state(&self) -> MutexGuard<'_, State> {
            self.0
                .lock()
                .expect("a test thread panicked holding the file system")
        }

        /// The disk a process that logged `log` and then died leaves, as
        /// the page cache held it: every operation whole. No process holds
        /// its lock; the log goes on from `log`.
        fn left_by(log: Vec<Op>) -> Self {
            let numbered = Numbered::new(&log);
            let tree = replay(&log, &numbered, &Kept::all(&log)).tree(&numbered);
            let fs = Self::on(tree, inodes(&log), true);
            fs.state().log = log;
            fs
        }

        fn log(&self) -> Vec<Op> {
            self.state().log.clone()
        }

        fn acknowledge(&self) {
            self.state().log.push(Op::Acknowledged);
        }
    }

    impl StoreFs for MemFs {
        fn create_dir(&self, path: &Path) -> std::io::Result<()> {
            let mut s = self.state();
            if s.tree.exists(path) {
                return Err(error(ErrorKind::AlreadyExists, path));
            }
            if !s.tree.has_parent(path) {
                return Err(error(ErrorKind::NotFound, path));
            }
            s.tree.dirs.insert(path.to_path_buf());
            s.log.push(Op::CreateDir(path.to_path_buf()));
            Ok(())
        }

        fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            let mut s = self.state();
            if s.tree.exists(path) {
                return Err(error(ErrorKind::AlreadyExists, path));
            }
            if !s.tree.has_parent(path) {
                return Err(error(ErrorKind::NotFound, path));
            }
            let inode = s.data.len() as u64;
            let bytes: Arc<[u8]> = bytes.into();
            s.data.push(bytes.clone());
            s.tree
                .files
                .insert(path.to_path_buf(), (inode, bytes.len()));
            s.log.push(Op::Create {
                path: path.to_path_buf(),
                inode,
                bytes,
            });
            Ok(())
        }

        fn sync_file(&self, path: &Path) -> std::io::Result<()> {
            let mut s = self.state();
            let (inode, _) = *s
                .tree
                .files
                .get(path)
                .ok_or_else(|| error(ErrorKind::NotFound, path))?;
            s.log.push(Op::SyncFile {
                path: path.to_path_buf(),
                inode,
            });
            Ok(())
        }

        fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
            let mut s = self.state();
            if !s.tree.dirs.contains(path) {
                return Err(error(ErrorKind::NotFound, path));
            }
            s.log.push(Op::SyncDir(path.to_path_buf()));
            Ok(())
        }

        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            let mut s = self.state();
            s.tree
                .files
                .remove(path)
                .ok_or_else(|| error(ErrorKind::NotFound, path))?;
            s.log.push(Op::Remove(path.to_path_buf()));
            Ok(())
        }

        /// Logged as what `std::fs::remove_dir_all` does: one removal per
        /// file, then each directory, innermost first.
        fn remove_tree(&self, path: &Path) -> std::io::Result<()> {
            let mut s = self.state();
            if !s.tree.dirs.contains(path) {
                return Err(error(ErrorKind::NotFound, path));
            }
            let files: Vec<PathBuf> = s
                .tree
                .files
                .keys()
                .filter(|f| f.starts_with(path))
                .cloned()
                .collect();
            for file in files {
                s.tree.files.remove(&file);
                s.log.push(Op::Remove(file));
            }
            let mut dirs: Vec<PathBuf> = s
                .tree
                .dirs
                .iter()
                .filter(|d| d.starts_with(path))
                .cloned()
                .collect();
            dirs.sort_by_key(|dir| std::cmp::Reverse(dir.components().count()));
            for dir in dirs {
                s.tree.dirs.remove(&dir);
                s.log.push(Op::RemoveDir(dir));
            }
            Ok(())
        }

        fn list_dir(&self, path: &Path) -> std::io::Result<Vec<String>> {
            let mut s = self.state();
            if !s.tree.dirs.contains(path) {
                return Err(error(ErrorKind::NotFound, path));
            }
            let children = s.tree.dirs.iter().chain(s.tree.files.keys());
            let names = children
                .filter(|child| child.parent() == Some(path))
                .filter_map(|child| Some(child.file_name()?.to_str()?.to_string()))
                .collect();
            s.log.push(Op::List(path.to_path_buf()));
            Ok(names)
        }

        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            let mut s = self.state();
            let (inode, len) = *s
                .tree
                .files
                .get(path)
                .ok_or_else(|| error(ErrorKind::NotFound, path))?;
            let bytes = s.data[inode as usize][..len].to_vec();
            s.log.push(Op::Read(path.to_path_buf()));
            Ok(bytes)
        }

        fn pid_is_alive(&self, pid: u32) -> bool {
            !self.state().rebooted && StdFs.pid_is_alive(pid)
        }
    }

    /// How much of each operation of a log prefix a crash kept: its entry,
    /// and for a create the length of the data prefix.
    #[derive(Clone)]
    struct Kept {
        entry: Vec<bool>,
        data: Vec<usize>,
    }

    impl Kept {
        /// Everything, whole.
        fn all(ops: &[Op]) -> Self {
            let data = ops.iter().map(|op| match op {
                Op::Create { bytes, .. } => bytes.len(),
                _ => 0,
            });
            Kept {
                entry: vec![true; ops.len()],
                data: data.collect(),
            }
        }
    }

    /// A log's paths, numbered, so that a crash state replays as one pass
    /// over flat vectors.
    struct Numbered {
        paths: Vec<PathBuf>,
        number: HashMap<PathBuf, usize>,
        /// Per path, its parent's number; `/` has none.
        parent: Vec<Option<usize>>,
        /// Per path, the numbers of itself and every path under it.
        under: Vec<Vec<usize>>,
        /// Per operation of the log, the number of its path.
        of_op: Vec<Option<usize>>,
    }

    impl Numbered {
        fn new(log: &[Op]) -> Self {
            let mut numbered = Numbered {
                paths: Vec::new(),
                number: HashMap::new(),
                parent: Vec::new(),
                under: Vec::new(),
                of_op: Vec::new(),
            };
            numbered.add(Path::new("/"));
            numbered.of_op = log
                .iter()
                .map(|op| op.path().map(|path| numbered.add(path)))
                .collect();
            for (n, path) in numbered.paths.iter().enumerate() {
                for ancestor in path.ancestors() {
                    numbered.under[numbered.number[ancestor]].push(n);
                }
            }
            numbered
        }

        fn add(&mut self, path: &Path) -> usize {
            if let Some(&n) = self.number.get(path) {
                return n;
            }
            let parent = path.parent().map(|parent| self.add(parent));
            let n = self.paths.len();
            self.paths.push(path.to_path_buf());
            self.number.insert(path.to_path_buf(), n);
            self.parent.push(parent);
            self.under.push(Vec::new());
            n
        }
    }

    /// A disk a crash leaves: per numbered path, whether it is a directory
    /// and which prefix of which inode it holds as a file.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Disk {
        dirs: Vec<bool>,
        files: Vec<Option<(u64, usize)>>,
    }

    impl Disk {
        fn tree(&self, numbered: &Numbered) -> Tree {
            let paths = |n: usize| numbered.paths[n].clone();
            Tree {
                dirs: (0..self.dirs.len())
                    .filter(|&n| self.dirs[n])
                    .map(paths)
                    .collect(),
                files: (0..self.files.len())
                    .filter_map(|n| Some((paths(n), self.files[n]?)))
                    .collect(),
            }
        }

        fn file(&self, numbered: &Numbered, path: &Path) -> Option<(u64, usize)> {
            self.files[*numbered.number.get(path)?]
        }
    }

    /// The disk a crash leaves after `ops` with `kept` of each.
    fn replay(ops: &[Op], numbered: &Numbered, kept: &Kept) -> Disk {
        let count = numbered.paths.len();
        let mut disk = Disk {
            dirs: vec![false; count],
            files: vec![None; count],
        };
        disk.dirs[0] = true; // `/`
        for (i, op) in ops.iter().enumerate() {
            let Some(n) = numbered.of_op[i].filter(|_| kept.entry[i]) else {
                continue;
            };
            let in_dir = numbered.parent[n].is_some_and(|parent| disk.dirs[parent]);
            match op {
                Op::CreateDir(_) if in_dir => disk.dirs[n] = true,
                Op::Create { inode, .. } if in_dir => disk.files[n] = Some((*inode, kept.data[i])),
                Op::Remove(_) => disk.files[n] = None,
                Op::RemoveDir(_) => {
                    for &m in &numbered.under[n] {
                        disk.dirs[m] = false;
                        disk.files[m] = None;
                    }
                }
                _ => {}
            }
        }
        disk
    }

    /// One unsynced effect a crash may keep or lose: an operation's entry,
    /// or the data of the file it created, with the choices the model
    /// allows (whole last).
    struct Effect {
        op: usize,
        data: bool,
        choices: Vec<usize>,
    }

    /// Calls `visit` on every disk a power loss after `ops` can leave, by
    /// the model in this module's docs.
    fn crash_states(ops: &[Op], numbered: &Numbered, mut visit: impl FnMut(&Disk)) {
        let whole = Kept::all(ops);
        // Unsynced effects, grouped by sync interval.
        let mut intervals: BTreeMap<usize, Vec<Effect>> = BTreeMap::new();
        let mut interval = 0;
        for (i, op) in ops.iter().enumerate() {
            let later = &ops[i + 1..];
            if let Some(dir) = op.entry_dir() {
                if !later
                    .iter()
                    .any(|o| matches!(o, Op::SyncDir(d) if d == dir))
                {
                    intervals.entry(interval).or_default().push(Effect {
                        op: i,
                        data: false,
                        choices: vec![0, 1],
                    });
                }
            }
            if let Op::Create { inode, bytes, .. } = op {
                let synced = |o: &Op| matches!(o, Op::SyncFile { inode: n, .. } if n == inode);
                if !later.iter().any(synced) {
                    let len = bytes.len();
                    let mut choices = vec![0, 1.min(len), len / 2, len.saturating_sub(1), len];
                    choices.dedup();
                    intervals.entry(interval).or_default().push(Effect {
                        op: i,
                        data: true,
                        choices,
                    });
                }
            }
            interval += usize::from(op.is_sync());
        }
        let groups: Vec<&Vec<Effect>> = intervals.values().collect();
        if groups.is_empty() {
            visit(&replay(ops, numbered, &whole));
            return;
        }
        let set = |kept: &mut Kept, effect: &Effect, choice: usize| {
            if effect.data {
                kept.data[effect.op] = choice;
            } else {
                kept.entry[effect.op] = choice == 1;
            }
        };
        for (t, group) in groups.iter().enumerate() {
            // Earlier intervals whole, later ones lost, this one any way.
            let mut kept = whole.clone();
            for effect in groups[t + 1..].iter().flat_map(|g| g.iter()) {
                set(&mut kept, effect, effect.choices[0]);
            }
            let mut pick = vec![0usize; group.len()];
            loop {
                let all_whole = group
                    .iter()
                    .zip(&pick)
                    .all(|(effect, &p)| p == effect.choices.len() - 1);
                // Keeping all of this interval is the next one's "none".
                if !all_whole || t + 1 == groups.len() {
                    for (effect, &p) in group.iter().zip(&pick) {
                        set(&mut kept, effect, effect.choices[p]);
                    }
                    visit(&replay(ops, numbered, &kept));
                }
                let Some(next) = (0..group.len()).find(|&k| pick[k] + 1 < group[k].choices.len())
                else {
                    break;
                };
                pick[next] += 1;
                pick[..next].fill(0);
            }
        }
    }

    /// Every inode's bytes, in the order the log creates them.
    fn inodes(log: &[Op]) -> Vec<Arc<[u8]>> {
        let mut data = Vec::new();
        for op in log {
            if let Op::Create { inode, bytes, .. } = op {
                assert_eq!(*inode as usize, data.len(), "inodes number the creates");
                data.push(bytes.clone());
            }
        }
        data
    }

    /// What the enumeration found.
    #[derive(Debug, Default)]
    struct Report {
        /// Crash points: log prefixes a power loss can follow.
        points: usize,
        /// Crash states over all points.
        states: usize,
        /// Distinct (disk, expectation) pairs recovery was run on.
        checked: usize,
        /// Per epoch recovery returned, the first disk it was returned on.
        recovered: BTreeMap<u64, Tree>,
        failures: Vec<String>,
    }

    /// Enumerates every crash state of `log` and recovers each one: a store
    /// opened on the crashed disk must recover the newest epoch whose
    /// commit was reported, or the epoch whose commit was under way, with
    /// every file it read exactly as written — never an older epoch, never
    /// a torn one, never a panic.
    fn check_every_crash_state(log: &[Op]) -> Report {
        let numbered = Numbered::new(log);
        let mut report = Report::default();
        let mut seen = HashSet::new();
        let data = inodes(log);
        let (mut acked, mut written) = (None, None);
        for at in 0..=log.len() {
            if let Some(op) = at.checked_sub(1).map(|i| &log[i]) {
                match op {
                    Op::List(_) | Op::Read(_) => continue,
                    Op::Acknowledged => acked = written,
                    _ => written = op.manifest_epoch().or(written),
                }
            }
            let in_flight = written.filter(|_| written != acked);
            let logical = replay(&log[..at], &numbered, &Kept::all(&log[..at]));
            report.points += 1;
            crash_states(&log[..at], &numbered, |disk| {
                report.states += 1;
                if !seen.insert((disk.clone(), acked, in_flight)) {
                    return;
                }
                report.checked += 1;
                match recovers(&numbered, &data, disk, &logical, (acked, in_flight)) {
                    Ok(Some(seq)) => {
                        let tree = || disk.tree(&numbered);
                        report.recovered.entry(seq).or_insert_with(tree);
                    }
                    Ok(None) => {}
                    Err(why) => report.failures.push(format!(
                        "crash after op {at} ({}): {why}",
                        log[at.max(1) - 1].label()
                    )),
                }
            });
        }
        report
    }

    /// Opens a store on `disk` and checks what it recovers against what the
    /// run wrote, `logical`, and the epochs it may return: the newest one
    /// whose commit was acknowledged, or the one whose commit was under way.
    /// Returns the recovered epoch's sequence number.
    fn recovers(
        numbered: &Numbered,
        data: &[Arc<[u8]>],
        disk: &Disk,
        logical: &Disk,
        (acked, in_flight): (Option<u64>, Option<u64>),
    ) -> Result<Option<u64>, String> {
        let fs = MemFs::on(disk.tree(numbered), data.to_vec(), true);
        let recovery = std::panic::catch_unwind(|| {
            let store = CheckpointStore::open_on(Box::new(fs), PathBuf::from(ROOT))?;
            store.recover()
        })
        .map_err(|_| "open or recover panicked".to_string())?
        .map_err(|e| format!("open or recover failed: {e}"))?;
        let Some(epoch) = recovery.epoch else {
            return match acked {
                None => Ok(None),
                Some(seq) => Err(format!("recovered nothing, but epoch {seq} was committed")),
            };
        };
        let seq = epoch.manifest.seq;
        if Some(seq) != acked && Some(seq) != in_flight {
            return Err(format!(
                "recovered epoch {seq}; committed {acked:?}, in flight {in_flight:?}"
            ));
        }
        let dir = Path::new(ROOT).join(format!("epoch-{seq:010}"));
        let read = (0..epoch.slots.len())
            .map(|slot| dir.join(format!("slot-{slot}.ckpt")))
            .chain([dir.join("manifest.ckpt")]);
        for path in read {
            if disk.file(numbered, &path) != logical.file(numbered, &path) {
                return Err(format!(
                    "recovered epoch {seq} from a torn {}",
                    path.display()
                ));
            }
        }
        Ok(Some(seq))
    }

    /// A 2×2 GD job small enough to enumerate: 48 px, one slice.
    fn small_job(iterations: usize) -> (Dataset, SolverConfig) {
        let dataset = Dataset::synthesize(SyntheticConfig {
            object_px: 48,
            slices: 1,
            scan_grid: (3, 3),
            window_px: 16,
            ..SyntheticConfig::tiny()
        });
        let config = SolverConfig {
            iterations,
            halo_px: 4,
            ..SolverConfig::default()
        };
        (dataset, config)
    }

    const POLICY: RecoveryPolicy = RecoveryPolicy::Recover {
        spares: 0,
        max_iteration_restarts: 2,
    };

    /// Opens the store at [`ROOT`] on `fs`.
    fn open(fs: &MemFs) -> CheckpointStore {
        CheckpointStore::open_on(Box::new(fs.clone()), PathBuf::from(ROOT))
            .expect("the store opens")
    }

    /// Runs a durable 2×2 job on `store`, whose file system is `fs`, rank 0
    /// acknowledging each commit in the log; `resume` as in
    /// [`DurabilityHook`].
    fn run_durable(
        fs: &MemFs,
        store: &CheckpointStore,
        iterations: usize,
        resume: Option<&RecoveredEpoch>,
    ) -> Result<ReconstructionResult, RankFailure> {
        let (dataset, config) = small_job(iterations);
        let solver = GradientDecompositionSolver::new(&dataset, config, (2, 2));
        let acknowledge = |event: IterationProgress| {
            if event.rank == 0 {
                fs.acknowledge();
            }
        };
        let job = JobContext {
            progress: Some(&acknowledge),
            durability: Some(DurabilityHook {
                store,
                resume,
                kill: None,
                spec: b"spec",
            }),
            ..JobContext::default()
        };
        let backend = LockstepBackend::new(ClusterTopology::summit());
        solver.run_job(&backend, POLICY, &job)
    }

    /// The log of a durable 2×2 job of three iterations whose process dies
    /// writing epoch 1's manifest, having written its first half, then
    /// resumed, as `JobEngine::resume` does, on one new store that
    /// recovers the epoch that survived and runs on: epochs 0, 2 and 3
    /// commit.
    fn killed_and_resumed() -> Vec<Op> {
        let fs = MemFs::new();
        run_durable(&fs, &open(&fs), 3, None).expect("the run completes");
        // The killed process's log: the run's, cut at epoch 1's manifest,
        // of which it wrote the first half.
        let mut log = fs.log();
        let torn = log
            .iter()
            .position(|op| op.manifest_epoch() == Some(1))
            .expect("epoch 1 commits");
        log.truncate(torn + 1);
        if let Op::Create { bytes, .. } = &mut log[torn] {
            *bytes = bytes[..bytes.len() / 2].into();
        }
        let fs = MemFs::left_by(log);
        let store = open(&fs);
        let epoch = store
            .recover()
            .expect("the scan succeeds")
            .epoch
            .expect("epoch 0 survives");
        assert_eq!(epoch.manifest.seq, 0);
        run_durable(&fs, &store, 3, Some(&epoch)).expect("the resumed run completes");
        drop(store);
        fs.log()
    }

    /// Syncs and lockfile syncs in a stretch of log. The file operations
    /// hold no rename, so every count of renames is zero.
    fn syncs(ops: &[Op]) -> (usize, usize) {
        let lock = |op: &&Op| matches!(op, Op::SyncFile { path, .. } if path.ends_with(LOCK_FILE));
        (
            ops.iter().filter(|op| op.is_sync()).count(),
            ops.iter().filter(lock).count(),
        )
    }

    #[test]
    fn syncs_per_durable_barrier_and_per_resume() {
        let fs = MemFs::new();
        run_durable(&fs, &open(&fs), 3, None).expect("the run completes");
        let log = fs.log();
        // Opening a fresh store ends with its scan of the root, and syncs
        // the directory the root was created in.
        let opened = 1 + log
            .iter()
            .position(|op| matches!(op, Op::List(_)))
            .expect("the open lists the root");
        assert_eq!(syncs(&log[..opened]), (1, 0), "a fresh open");
        let barriers: Vec<&[Op]> = log[opened..]
            .split(|op| matches!(op, Op::Acknowledged))
            .collect();
        assert_eq!(barriers.len(), 4, "three barriers, then the lock's release");
        for barrier in &barriers[..3] {
            // One per slot file, the manifest, its directory, the root.
            assert_eq!(syncs(barrier), (7, 0), "a 4-rank durable barrier");
        }
        assert_eq!(syncs(barriers[3]), (0, 0));

        // A resume opens the store once, recovers, and runs on it.
        let before = fs.log().len();
        open(&fs).recover().expect("the scan succeeds");
        assert_eq!(syncs(&fs.log()[before..]), (0, 0), "a resume");
    }

    /// No store file is written twice: every create but the lockfile's
    /// goes to a path no earlier operation named, the torn epoch's
    /// included, and the lockfile is created again only after its removal.
    #[test]
    fn every_create_goes_to_a_path_the_log_has_not_seen() {
        let log = killed_and_resumed();
        let manifests_1: Vec<&Op> = log
            .iter()
            .filter(|op| op.manifest_epoch() == Some(1))
            .collect();
        match manifests_1[..] {
            [Op::Create { path, bytes, .. }] => assert!(
                unframe(bytes, path, MANIFEST_MAGIC).is_err(),
                "epoch 1's one manifest is torn"
            ),
            _ => panic!("epoch 1's manifest is created once: {manifests_1:?}"),
        }
        let mut seen: HashSet<&Path> = HashSet::new();
        let mut creates = 0;
        for (i, op) in log.iter().enumerate() {
            let Some(path) = op.path() else { continue };
            if let Op::Create { .. } = op {
                creates += 1;
                if path.ends_with(LOCK_FILE) {
                    let last = log[..i].iter().rev().find_map(|op| match op {
                        Op::Create { path: p, .. } if p == path => Some(false),
                        Op::Remove(p) if p == path => Some(true),
                        _ => None,
                    });
                    assert_ne!(last, Some(false), "op {i}: the lockfile is created twice");
                } else {
                    assert!(!seen.contains(path), "op {i}: {} again", op.label());
                }
            }
            seen.insert(path);
        }
        // Two locks (the killed run's and the resume's), four slots in each
        // of four epochs, and four manifests (epoch 1's torn).
        assert_eq!(creates, 2 + 16 + 4);
    }

    /// Every crash state recovers, and resuming from each epoch recovery
    /// returns, on the disk it was returned on, ends in the volume and cost
    /// history of an uninterrupted run, bit for bit.
    #[test]
    fn every_crash_state_of_a_killed_and_resumed_run_recovers() {
        let log = killed_and_resumed();
        let report = check_every_crash_state(&log);
        assert!(
            report.failures.is_empty(),
            "{} of {} distinct crash states ({} in all) fail:\n{}",
            report.failures.len(),
            report.checked,
            report.states,
            report.failures[..report.failures.len().min(8)].join("\n")
        );
        // The lockfile holds this process's pid, whose length moves the
        // number of ways its unsynced data can be cut short.
        assert_eq!(report.points, 71, "crash points");
        assert!(report.states > 11_000, "{report:?}");
        assert!(report.checked > 1_000, "{report:?}");

        let fs = MemFs::new();
        let uninterrupted = run_durable(&fs, &open(&fs), 3, None).expect("the run completes");
        let bits = |result: &ReconstructionResult| -> Vec<u64> {
            let volume = result.volume.iter();
            let volume = volume.flat_map(|v| [v.re.to_bits(), v.im.to_bits()]);
            let costs = result.cost_history.costs().iter().map(|c| c.to_bits());
            volume.chain(costs).collect()
        };
        let seqs: Vec<u64> = report.recovered.keys().copied().collect();
        assert_eq!(seqs, [0, 2, 3], "the epochs recovery returns");
        for (&seq, tree) in &report.recovered {
            let fs = MemFs::on(tree.clone(), inodes(&log), true);
            let store = open(&fs);
            let epoch = store.recover().expect("the scan succeeds").epoch;
            let epoch = epoch.expect("the epoch recovered before");
            assert_eq!(epoch.manifest.seq, seq);
            let resumed = run_durable(&fs, &store, 3, Some(&epoch))
                .unwrap_or_else(|failure| panic!("resuming epoch {seq}: {failure}"));
            assert!(
                bits(&resumed) == bits(&uninterrupted),
                "resuming epoch {seq} moves the result"
            );
        }
    }
}
