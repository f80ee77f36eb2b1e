//! The flight recorder: preallocated per-rank ring buffers, allocation-free
//! recording, and barrier-synchronised durable flushing.
//!
//! # Ownership and threading
//!
//! One [`Telemetry`] instance covers one run (or one job of the service). It
//! hands out one [`RankSink`] per rank; a sink is a pair of `Arc`s, so
//! cloning it and recording through it never allocates. Each rank's ring
//! lives behind its own mutex — ranks never contend with each other on the
//! steady-state path, only with the (rare) flusher.
//!
//! # Durability discipline
//!
//! When a writer is attached, events become durable at the per-iteration
//! consistency barrier: each rank publishes a *watermark* (its current
//! sequence count) before entering the barrier, and after the barrier one
//! rank calls [`Telemetry::flush_consistent`], which writes every rank's
//! events up to its published watermark, in rank order then sequence order.
//! The barrier gives the flusher a happens-before edge over every published
//! watermark, so a killed process leaves a prefix-consistent log: whatever
//! made it to the file is exactly "everything every rank saw up to barrier
//! N", possibly plus one partially-written trailing line that readers
//! tolerate.
//!
//! Watermarks are double-buffered by barrier-generation parity: a rank that
//! races ahead publishes generation `g+1` into the other parity slot, so the
//! flusher of generation `g` still reads the value published *before*
//! barrier `g`. (A rank cannot publish `g+2` before the generation-`g` flush
//! completes, because that would require passing barrier `g+1`, which the
//! flushing rank has not reached yet.)

use crate::event::{TelemetryEvent, TelemetryRecord};
use crate::json;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Tuning for one [`Telemetry`] instance.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Capacity of each per-rank ring buffer, in records. When a ring wraps,
    /// the oldest record is evicted; evictions of not-yet-durable records
    /// are counted in [`Telemetry::lost_records`].
    pub ring_capacity: usize,
    /// Job id stamped into every record (0 when the run is not part of a
    /// multi-job service).
    pub job_id: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 4096,
            job_id: 0,
        }
    }
}

/// Per-rank recorder state: the ring, the simulated clock mirror, and the
/// durable cursor.
struct RankRecorder {
    rank: u64,
    job: u64,
    /// Ring storage; grows by `push` up to the preallocated capacity and
    /// then wraps (no reallocation ever happens after construction).
    ring: Vec<TelemetryRecord>,
    /// Index of the oldest record once the ring has wrapped.
    start: usize,
    /// Next sequence number to assign (== total records ever recorded).
    next_seq: u64,
    /// Cumulative analytic communication nanoseconds (monotonic).
    comm_ns: u64,
    /// Cumulative modeled compute nanoseconds (monotonic).
    compute_ns: u64,
    /// Double-buffered barrier watermarks, indexed by generation parity.
    watermark: [u64; 2],
    /// First sequence number not yet written to the durable sink.
    written_seq: u64,
    /// Records evicted from this ring before they became durable.
    lost: u64,
}

impl RankRecorder {
    fn new(rank: u64, job: u64, capacity: usize) -> Self {
        Self {
            rank,
            job,
            ring: Vec::with_capacity(capacity.max(1)),
            start: 0,
            next_seq: 0,
            comm_ns: 0,
            compute_ns: 0,
            watermark: [0, 0],
            written_seq: 0,
            lost: 0,
        }
    }

    /// Stamps and stores one event. Never allocates: the ring was sized at
    /// construction, and `push` below capacity reuses the reserved storage.
    fn record(&mut self, event: TelemetryEvent) {
        let record = TelemetryRecord {
            rank: self.rank,
            seq: self.next_seq,
            sim_ns: self.comm_ns + self.compute_ns,
            job: self.job,
            event,
        };
        self.next_seq += 1;
        let capacity = self.ring.capacity();
        if self.ring.len() < capacity {
            self.ring.push(record);
        } else {
            self.ring[self.start] = record;
            self.start = (self.start + 1) % capacity;
        }
    }

    /// Sequence number of the oldest record still held by the ring.
    fn oldest_seq(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }

    /// The record with sequence number `seq` (must still be in the ring).
    fn at_seq(&self, seq: u64) -> &TelemetryRecord {
        let offset = (seq - self.oldest_seq()) as usize;
        let idx = (self.start + offset) % self.ring.len().max(1);
        &self.ring[idx]
    }

    /// Emits every record in `[written_seq, up_to)` still present in the
    /// ring as JSONL into `buf`, advances the durable cursor, and returns
    /// how many records had already been evicted (lost to the ring wrap).
    fn emit_pending(&mut self, up_to: u64, buf: &mut String) -> u64 {
        let up_to = up_to.min(self.next_seq);
        if up_to <= self.written_seq {
            return 0;
        }
        let from = self.written_seq.max(self.oldest_seq());
        let lost = from - self.written_seq;
        self.lost += lost;
        for seq in from..up_to {
            json::emit_record(self.at_seq(seq), buf);
        }
        self.written_seq = up_to;
        lost
    }
}

/// The durable half: a writer plus a reusable line buffer so flushing does
/// not allocate per event once warm.
struct DurableState {
    writer: Box<dyn Write + Send>,
    buf: String,
}

struct Inner {
    config: TelemetryConfig,
    recorders: RwLock<Vec<Arc<Mutex<RankRecorder>>>>,
    durable: Option<Mutex<DurableState>>,
    lost: AtomicU64,
}

/// The telemetry hub for one run: hands out per-rank [`RankSink`]s, owns the
/// optional durable writer, and exposes in-memory snapshots.
///
/// Cloning is cheap (`Arc`); every clone observes the same streams.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("ranks", &self.ranks())
            .field("job_id", &self.inner.config.job_id)
            .field("ring_capacity", &self.inner.config.ring_capacity)
            .field("durable", &self.inner.durable.is_some())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An in-memory-only recorder with the default configuration.
    pub fn new() -> Self {
        Self::with_config(TelemetryConfig::default())
    }

    /// An in-memory-only recorder with explicit tuning.
    pub fn with_config(config: TelemetryConfig) -> Self {
        Self::build(config, None)
    }

    /// A recorder that also writes JSONL to `writer` at every consistency
    /// flush (see the module docs for the durability discipline).
    pub fn with_writer(config: TelemetryConfig, writer: Box<dyn Write + Send>) -> Self {
        Self::build(config, Some(writer))
    }

    fn build(config: TelemetryConfig, writer: Option<Box<dyn Write + Send>>) -> Self {
        Self {
            inner: Arc::new(Inner {
                config,
                recorders: RwLock::new(Vec::new()),
                durable: writer.map(|writer| {
                    Mutex::new(DurableState {
                        writer,
                        buf: String::with_capacity(16 * 1024),
                    })
                }),
                lost: AtomicU64::new(0),
            }),
        }
    }

    /// The sink for `rank`'s stream, creating (and preallocating) the
    /// stream on first use. Creation allocates; recording through the
    /// returned sink does not.
    pub fn sink(&self, rank: usize) -> RankSink {
        let mut recorders = self
            .inner
            .recorders
            .write()
            .expect("telemetry recorder table poisoned");
        while recorders.len() <= rank {
            let next_rank = recorders.len() as u64;
            recorders.push(Arc::new(Mutex::new(RankRecorder::new(
                next_rank,
                self.inner.config.job_id,
                self.inner.config.ring_capacity,
            ))));
        }
        RankSink {
            recorder: Arc::clone(&recorders[rank]),
        }
    }

    /// Number of rank streams created so far.
    pub fn ranks(&self) -> usize {
        self.inner
            .recorders
            .read()
            .expect("telemetry recorder table poisoned")
            .len()
    }

    /// Records evicted from a ring before they became durable. Nonzero means
    /// the ring capacity was too small for the flush cadence and the JSONL
    /// log has per-rank sequence gaps (readers tolerate them).
    pub fn lost_records(&self) -> u64 {
        self.inner.lost.load(Ordering::Relaxed)
    }

    /// Per-rank lost-record counters, indexed by rank. The sum equals
    /// [`Telemetry::lost_records`]; a nonzero entry names the exact stream
    /// whose JSONL log has sequence gaps.
    pub fn lost_records_by_rank(&self) -> Vec<u64> {
        let recorders = self
            .inner
            .recorders
            .read()
            .expect("telemetry recorder table poisoned");
        recorders
            .iter()
            .map(|r| r.lock().expect("telemetry recorder poisoned").lost)
            .collect()
    }

    /// In-memory snapshot of `rank`'s stream: whatever the ring still holds,
    /// oldest first. Empty when the stream does not exist.
    pub fn records(&self, rank: usize) -> Vec<TelemetryRecord> {
        let recorders = self
            .inner
            .recorders
            .read()
            .expect("telemetry recorder table poisoned");
        let Some(recorder) = recorders.get(rank) else {
            return Vec::new();
        };
        let recorder = recorder.lock().expect("telemetry recorder poisoned");
        let mut out = Vec::with_capacity(recorder.ring.len());
        for seq in recorder.oldest_seq()..recorder.next_seq {
            out.push(*recorder.at_seq(seq));
        }
        out
    }

    /// Total events ever recorded across all streams.
    pub fn total_recorded(&self) -> u64 {
        let recorders = self
            .inner
            .recorders
            .read()
            .expect("telemetry recorder table poisoned");
        recorders
            .iter()
            .map(|r| r.lock().expect("telemetry recorder poisoned").next_seq)
            .sum()
    }

    /// Writes every rank's events up to its published generation-`generation`
    /// watermark to the durable sink (no-op without a writer). Call from
    /// exactly one rank, after the consistency barrier of that generation.
    pub fn flush_consistent(&self, generation: u64) {
        self.flush_up_to(|recorder| recorder.watermark[(generation % 2) as usize]);
    }

    /// Writes every event recorded so far to the durable sink (no-op
    /// without a writer). Call once per run from the driver, after every
    /// rank has finished.
    pub fn flush_all(&self) {
        self.flush_up_to(|recorder| recorder.next_seq);
    }

    fn flush_up_to(&self, up_to: impl Fn(&RankRecorder) -> u64) {
        let Some(durable) = &self.inner.durable else {
            return;
        };
        let mut durable = durable.lock().expect("telemetry durable sink poisoned");
        let recorders = self
            .inner
            .recorders
            .read()
            .expect("telemetry recorder table poisoned");
        let mut lost = 0;
        let DurableState { writer, buf } = &mut *durable;
        for recorder in recorders.iter() {
            let mut recorder = recorder.lock().expect("telemetry recorder poisoned");
            let limit = up_to(&recorder);
            lost += recorder.emit_pending(limit, buf);
        }
        drop(recorders);
        if lost > 0 {
            self.inner.lost.fetch_add(lost, Ordering::Relaxed);
        }
        if !buf.is_empty() {
            writer
                .write_all(buf.as_bytes())
                .expect("telemetry sink write failed");
            writer.flush().expect("telemetry sink flush failed");
            buf.clear();
        }
    }
}

/// One rank's recording handle. Cloning and recording never allocate;
/// see [`Telemetry::sink`].
#[derive(Clone)]
pub struct RankSink {
    recorder: Arc<Mutex<RankRecorder>>,
}

impl std::fmt::Debug for RankSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let recorder = self.recorder.lock().expect("telemetry recorder poisoned");
        f.debug_struct("RankSink")
            .field("rank", &recorder.rank)
            .field("recorded", &recorder.next_seq)
            .finish()
    }
}

impl RankSink {
    /// The rank this sink records for.
    pub fn rank(&self) -> usize {
        self.recorder
            .lock()
            .expect("telemetry recorder poisoned")
            .rank as usize
    }

    /// Stamps and stores one event at the rank's current simulated time.
    pub fn record(&self, event: TelemetryEvent) {
        self.recorder
            .lock()
            .expect("telemetry recorder poisoned")
            .record(event);
    }

    /// Updates the rank's analytic communication clock (monotonic: stale
    /// values are ignored), then stores the event.
    pub fn record_at_comm_ns(&self, comm_ns: u64, event: TelemetryEvent) {
        let mut recorder = self.recorder.lock().expect("telemetry recorder poisoned");
        recorder.comm_ns = recorder.comm_ns.max(comm_ns);
        recorder.record(event);
    }

    /// Updates the rank's analytic communication clock without recording.
    /// Monotonic: stale values are ignored.
    pub fn set_comm_ns(&self, comm_ns: u64) {
        let mut recorder = self.recorder.lock().expect("telemetry recorder poisoned");
        recorder.comm_ns = recorder.comm_ns.max(comm_ns);
    }

    /// Adds modeled compute time to the rank's simulated clock.
    pub fn add_compute_ns(&self, compute_ns: u64) {
        self.recorder
            .lock()
            .expect("telemetry recorder poisoned")
            .compute_ns += compute_ns;
    }

    /// The rank's simulated clock split: `(comm_ns, compute_ns)`.
    pub fn sim_parts(&self) -> (u64, u64) {
        let recorder = self.recorder.lock().expect("telemetry recorder poisoned");
        (recorder.comm_ns, recorder.compute_ns)
    }

    /// Publishes the rank's durable watermark for barrier `generation`.
    /// Call immediately before entering the consistency barrier; the
    /// post-barrier [`Telemetry::flush_consistent`] of the same generation
    /// writes everything recorded before this call.
    pub fn publish_watermark(&self, generation: u64) {
        let mut recorder = self.recorder.lock().expect("telemetry recorder poisoned");
        let slot = (generation % 2) as usize;
        recorder.watermark[slot] = recorder.watermark[slot].max(recorder.next_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc as StdArc, Mutex as StdMutex};

    /// A writer handing the written bytes back to the test.
    #[derive(Clone, Default)]
    struct SharedBuf(StdArc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let telemetry = Telemetry::with_config(TelemetryConfig {
            ring_capacity: 4,
            job_id: 0,
        });
        let sink = telemetry.sink(0);
        for i in 0..10 {
            sink.record(TelemetryEvent::Checkpoint { iteration: i });
        }
        let records = telemetry.records(0);
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].seq, 6);
        assert_eq!(records[3].seq, 9);
        assert!(records
            .iter()
            .all(|r| matches!(r.event, TelemetryEvent::Checkpoint { .. })));
    }

    #[test]
    fn sim_clock_combines_comm_and_compute_monotonically() {
        let telemetry = Telemetry::new();
        let sink = telemetry.sink(1);
        sink.set_comm_ns(100);
        sink.add_compute_ns(50);
        sink.record(TelemetryEvent::BarrierWait { iteration: 0 });
        sink.set_comm_ns(40); // stale: ignored
        sink.record_at_comm_ns(300, TelemetryEvent::BarrierWait { iteration: 1 });
        let records = telemetry.records(1);
        assert_eq!(records[0].sim_ns, 150);
        assert_eq!(records[1].sim_ns, 350);
    }

    #[test]
    fn consistent_flush_honours_watermarks() {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
        let sink = telemetry.sink(0);
        sink.record(TelemetryEvent::Checkpoint { iteration: 0 });
        sink.publish_watermark(0);
        sink.record(TelemetryEvent::Checkpoint { iteration: 1 });
        telemetry.flush_consistent(0);
        let after_first = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(after_first.lines().count(), 1, "only the watermarked event");
        telemetry.flush_all();
        let after_all = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(after_all.lines().count(), 2);
        assert_eq!(telemetry.lost_records(), 0);
    }

    #[test]
    fn eviction_before_flush_counts_lost_records() {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(
            TelemetryConfig {
                ring_capacity: 2,
                job_id: 0,
            },
            Box::new(buf.clone()),
        );
        let sink = telemetry.sink(0);
        for i in 0..5 {
            sink.record(TelemetryEvent::Checkpoint { iteration: i });
        }
        telemetry.flush_all();
        assert_eq!(telemetry.lost_records(), 3);
        assert_eq!(
            telemetry.lost_records_by_rank(),
            vec![3],
            "the loss must be attributed to the overflowing stream"
        );
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2, "the two surviving ring entries");
    }
}
