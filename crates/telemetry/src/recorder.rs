//! The flight recorder: preallocated per-rank ring buffers, recording that
//! takes no lock and never allocates, and barrier-synchronised durable
//! flushing.
//!
//! # Ownership
//!
//! One [`Telemetry`] hub covers one run (or one job of the service).
//! [`Telemetry::sink`] moves a rank's stream (ring, sequence counter,
//! last stamp) out of the hub into the returned [`RankSink`], which
//! owns it outright. Dropping the sink, on return or on unwind, parks the
//! stream back; the next `sink` for that rank continues it. Snapshots read
//! the parked streams, so a stream held by a running rank shows up once the
//! rank finishes.
//!
//! # Durability discipline
//!
//! With a writer attached, each rank calls [`RankSink::publish_watermark`]
//! before entering the per-iteration consistency barrier: it copies its new
//! records into the stream's hand-off slot in the hub (allocated once, at
//! ring capacity) and stores its watermark there. That is the only lock a
//! rank takes, once per barrier. After the barrier one rank calls
//! [`Telemetry::flush_consistent`], which writes every stream's handed-off
//! records below its watermark, in rank order then sequence order. So a
//! killed process leaves a prefix-consistent log: "everything every rank saw
//! up to barrier N", possibly plus one partially-written trailing line that
//! readers tolerate. A restarted attempt republishes the same generation,
//! and the failed attempt's records, still in the slot below the new
//! watermark, come out first and once.
//!
//! Watermarks are double-buffered by barrier-generation parity: a rank that
//! races ahead publishes generation `g+1` into the other parity slot, so the
//! flusher of generation `g` still reads the value published *before*
//! barrier `g`. (A rank cannot publish `g+2` before the generation-`g` flush
//! completes, because that would require passing barrier `g+1`, which the
//! flushing rank has not reached yet.)
//!
//! A record that will never be written counts as lost on its own stream:
//! its ring or its full slot evicted it first, or the writer is retired. The
//! first failed write or flush retires the writer; nothing is written after
//! it, so at most one torn line ends the file.

use crate::event::{TelemetryEvent, TelemetryRecord};
use crate::json;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// One rank's stream: the ring, the last stamp, and the hand-off cursor.
struct Stream {
    rank: u64,
    job: u64,
    /// Ring storage; grows by `push` up to the preallocated capacity and
    /// then wraps (no reallocation ever happens after construction).
    ring: Vec<TelemetryRecord>,
    /// Index of the oldest record once the ring has wrapped.
    start: usize,
    /// Next sequence number to assign (== total records ever recorded).
    next_seq: u64,
    /// The simulated time of the latest record (monotonic).
    last_ns: u64,
    /// First sequence number not yet handed off to the hub.
    handed_seq: u64,
}

impl Stream {
    /// Stamps one event at `sim_ns`, or at the last stamp if that is later,
    /// and stores it. Never allocates: the ring was sized at construction,
    /// and `push` below capacity reuses the reserved storage.
    fn record(&mut self, sim_ns: u64, event: TelemetryEvent) {
        self.last_ns = self.last_ns.max(sim_ns);
        let record = TelemetryRecord {
            rank: self.rank,
            seq: self.next_seq,
            sim_ns: self.last_ns,
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
}

/// One stream as the hub keeps it.
struct Slot {
    /// The stream, while no [`RankSink`] holds it.
    parked: Option<Stream>,
    /// Handed-off records not yet written, in sequence order.
    handed: VecDeque<TelemetryRecord>,
    /// Double-buffered barrier watermarks, indexed by generation parity.
    watermark: [u64; 2],
    /// Records of this stream that will never be written.
    lost: u64,
    /// Records of this stream in the batch being written.
    batch: u64,
}

impl Slot {
    /// Copies every record of `stream` not yet handed off into the slot,
    /// oldest first, counting what the ring or the full slot evicts.
    fn hand_off(&mut self, stream: &mut Stream) {
        let from = stream.handed_seq.max(stream.oldest_seq());
        self.lost += from - stream.handed_seq;
        for seq in from..stream.next_seq {
            if self.handed.len() == stream.ring.capacity() {
                self.handed.pop_front();
                self.lost += 1;
            }
            self.handed.push_back(*stream.at_seq(seq));
        }
        stream.handed_seq = stream.next_seq;
    }

    /// Renders every handed-off record below `limit` into `buf`, oldest
    /// first, as this flush's batch.
    fn take_below(&mut self, limit: u64, buf: &mut String) {
        let count = self.handed.partition_point(|r| r.seq < limit);
        for record in self.handed.drain(..count) {
            json::emit_record(&record, buf);
        }
        self.batch = count as u64;
    }
}

/// The durable half: the writer, until a write fails, and a reusable line
/// buffer so flushing does not allocate per event once warm.
struct Durable {
    writer: Option<Box<dyn Write + Send>>,
    buf: String,
}

struct Inner {
    config: TelemetryConfig,
    slots: Mutex<Vec<Slot>>,
    durable: Option<Mutex<Durable>>,
}

/// Every critical section in this module is panic-free, so a poisoned
/// guard still holds consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// flush (see the module docs for the durability discipline). The first
    /// write or flush error retires `writer` instead of failing the run:
    /// nothing is written after it, and the lines it did not complete and
    /// every later record count in [`Telemetry::lost_records`].
    pub fn with_writer(config: TelemetryConfig, writer: Box<dyn Write + Send>) -> Self {
        Self::build(config, Some(writer))
    }

    fn build(config: TelemetryConfig, writer: Option<Box<dyn Write + Send>>) -> Self {
        Self {
            inner: Arc::new(Inner {
                config,
                slots: Mutex::new(Vec::new()),
                durable: writer.map(|writer| {
                    Mutex::new(Durable {
                        writer: Some(writer),
                        buf: String::with_capacity(16 * 1024),
                    })
                }),
            }),
        }
    }

    /// Moves `rank`'s stream into the returned sink, creating (and
    /// preallocating) the stream on first use. Creation allocates;
    /// recording through the sink does not. A stream another sink holds is
    /// not shared: this sink is then detached, and what it records counts
    /// as lost on that stream.
    pub fn sink(&self, rank: usize) -> RankSink {
        let capacity = self.inner.config.ring_capacity.max(1);
        let mut slots = lock(&self.inner.slots);
        while slots.len() <= rank {
            let parked = Stream {
                rank: slots.len() as u64,
                job: self.inner.config.job_id,
                ring: Vec::with_capacity(capacity),
                start: 0,
                next_seq: 0,
                last_ns: 0,
                handed_seq: 0,
            };
            // Without a writer nothing is ever handed off.
            let handed = self.inner.durable.as_ref().map_or(0, |_| capacity);
            slots.push(Slot {
                parked: Some(parked),
                handed: VecDeque::with_capacity(handed),
                watermark: [0, 0],
                lost: 0,
                batch: 0,
            });
        }
        RankSink {
            inner: Arc::clone(&self.inner),
            rank,
            stream: slots[rank].parked.take(),
            detached: 0,
        }
    }

    /// Number of rank streams created so far.
    pub fn ranks(&self) -> usize {
        lock(&self.inner.slots).len()
    }

    /// Records that will never be written: evicted before they were handed
    /// off or written, or lost to a failed writer. Nonzero means the JSONL
    /// log has per-rank sequence gaps (readers tolerate them).
    pub fn lost_records(&self) -> u64 {
        self.lost_records_by_rank().iter().sum()
    }

    /// Per-rank lost-record counters, indexed by rank. The sum equals
    /// [`Telemetry::lost_records`]; a nonzero entry names the exact stream
    /// whose JSONL log has sequence gaps.
    pub fn lost_records_by_rank(&self) -> Vec<u64> {
        lock(&self.inner.slots).iter().map(|s| s.lost).collect()
    }

    /// In-memory snapshot of `rank`'s stream: whatever the ring still holds,
    /// oldest first. Empty when the stream does not exist or a sink holds
    /// it.
    pub fn records(&self, rank: usize) -> Vec<TelemetryRecord> {
        let slots = lock(&self.inner.slots);
        let Some(stream) = slots.get(rank).and_then(|slot| slot.parked.as_ref()) else {
            return Vec::new();
        };
        (stream.oldest_seq()..stream.next_seq)
            .map(|seq| *stream.at_seq(seq))
            .collect()
    }

    /// Total events ever recorded across the parked streams.
    pub fn total_recorded(&self) -> u64 {
        let slots = lock(&self.inner.slots);
        slots
            .iter()
            .flat_map(|s| &s.parked)
            .map(|s| s.next_seq)
            .sum()
    }

    /// Writes every stream's handed-off events below its generation-
    /// `generation` watermark to the durable sink (no-op without a writer).
    /// Call from exactly one rank, after the consistency barrier of that
    /// generation.
    pub fn flush_consistent(&self, generation: u64) {
        let parity = (generation % 2) as usize;
        self.flush(|slot| slot.watermark[parity]);
    }

    /// Writes every event not yet written to the durable sink (no-op
    /// without a writer). Call once per run from the driver, after every
    /// rank has finished (a sink hands its stream's remainder off when it
    /// is dropped).
    pub fn flush_all(&self) {
        self.flush(|_| u64::MAX);
    }

    /// Renders each stream's handed-off records below `limit(slot)`, in
    /// rank order, and writes them. A failed write retires the writer and
    /// counts the lines it did not complete as lost; after that, every
    /// batch counts as lost.
    fn flush(&self, limit: impl Fn(&Slot) -> u64) {
        let Some(durable) = &self.inner.durable else {
            return;
        };
        let mut durable = lock(durable);
        let Durable { writer, buf } = &mut *durable;
        for slot in lock(&self.inner.slots).iter_mut() {
            slot.take_below(limit(slot), buf);
        }
        if buf.is_empty() {
            return;
        }
        let outcome = match writer {
            Some(writer) => write_out(writer.as_mut(), buf.as_bytes()),
            None => Err(0),
        };
        if let Err(done) = outcome {
            *writer = None;
            // Streams were rendered in rank order, so the complete lines
            // are the leading ones.
            let newlines = buf.as_bytes()[..done].iter().filter(|&&b| b == b'\n');
            let mut complete = newlines.count() as u64;
            for slot in lock(&self.inner.slots).iter_mut() {
                let written = slot.batch.min(complete);
                complete -= written;
                slot.lost += slot.batch - written;
            }
        }
        buf.clear();
    }
}

/// Writes all of `bytes` and flushes. On failure returns how many bytes the
/// writer accepted.
fn write_out(writer: &mut dyn Write, bytes: &[u8]) -> Result<(), usize> {
    let mut done = 0;
    while done < bytes.len() {
        match writer.write(&bytes[done..]) {
            Ok(n) if n > 0 => done += n,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            _ => return Err(done),
        }
    }
    writer.flush().map_err(|_| done)
}

/// One rank's recording handle: it owns the rank's stream until dropped
/// (see [`Telemetry::sink`]). Recording takes no lock and never allocates.
pub struct RankSink {
    inner: Arc<Inner>,
    rank: usize,
    /// `None` for a detached sink (the stream was already held).
    stream: Option<Stream>,
    /// Events a detached sink was asked to record.
    detached: u64,
}

impl Drop for RankSink {
    /// Hands the stream's remainder off (with a writer) and parks it.
    fn drop(&mut self) {
        let slot = &mut lock(&self.inner.slots)[self.rank];
        match self.stream.take() {
            Some(mut stream) => {
                if self.inner.durable.is_some() {
                    slot.hand_off(&mut stream);
                }
                slot.parked = Some(stream);
            }
            None => slot.lost += self.detached,
        }
    }
}

impl RankSink {
    /// Stamps and stores one event at the stream's last stamp: for events
    /// recorded outside a rank, which has no clock of its own.
    pub fn record(&mut self, event: TelemetryEvent) {
        let at = self.stream.as_ref().map_or(0, |stream| stream.last_ns);
        self.record_at(at, event);
    }

    /// Stamps and stores one event at simulated time `sim_ns`, a reading
    /// of the rank's clock. Stamps are monotonic: an earlier `sim_ns` than
    /// the stream's last stamp is stamped at the last stamp.
    pub fn record_at(&mut self, sim_ns: u64, event: TelemetryEvent) {
        match &mut self.stream {
            Some(stream) => stream.record(sim_ns, event),
            None => self.detached += 1,
        }
    }

    /// Hands the rank's new records to the hub and publishes its durable
    /// watermark for barrier `generation` (no-op without a writer). Call
    /// immediately before entering the consistency barrier; the
    /// post-barrier [`Telemetry::flush_consistent`] of the same generation
    /// writes everything recorded before this call.
    pub fn publish_watermark(&mut self, generation: u64) {
        let (Some(stream), Some(_)) = (&mut self.stream, &self.inner.durable) else {
            return;
        };
        let slot = &mut lock(&self.inner.slots)[self.rank];
        slot.hand_off(stream);
        let parity = (generation % 2) as usize;
        slot.watermark[parity] = slot.watermark[parity].max(stream.next_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSummary;
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
        let mut sink = telemetry.sink(0);
        for i in 0..10 {
            sink.record(TelemetryEvent::Checkpoint { iteration: i });
        }
        drop(sink);
        let records = telemetry.records(0);
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].seq, 6);
        assert_eq!(records[3].seq, 9);
        assert!(records
            .iter()
            .all(|r| matches!(r.event, TelemetryEvent::Checkpoint { .. })));
    }

    #[test]
    fn stamps_are_monotonic_and_unclocked_records_take_the_last_stamp() {
        let telemetry = Telemetry::new();
        let mut sink = telemetry.sink(1);
        sink.record(TelemetryEvent::BarrierWait { iteration: 0 });
        sink.record_at(150, TelemetryEvent::BarrierWait { iteration: 1 });
        sink.record_at(40, TelemetryEvent::BarrierWait { iteration: 2 }); // stale
        sink.record(TelemetryEvent::Checkpoint { iteration: 2 });
        sink.record_at(350, TelemetryEvent::BarrierWait { iteration: 3 });
        drop(sink);
        let stamps: Vec<u64> = telemetry.records(1).iter().map(|r| r.sim_ns).collect();
        assert_eq!(stamps, [0, 150, 150, 150, 350]);
    }

    #[test]
    fn consistent_flush_honours_watermarks() {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
        let mut sink = telemetry.sink(0);
        sink.record(TelemetryEvent::Checkpoint { iteration: 0 });
        sink.publish_watermark(0);
        sink.record(TelemetryEvent::Checkpoint { iteration: 1 });
        telemetry.flush_consistent(0);
        let after_first = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(after_first.lines().count(), 1, "only the watermarked event");
        drop(sink);
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
        let mut sink = telemetry.sink(0);
        for i in 0..5 {
            sink.record(TelemetryEvent::Checkpoint { iteration: i });
        }
        drop(sink);
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

    /// Records one `Checkpoint` through a fresh handle on `rank`'s stream.
    fn record_on(telemetry: &Telemetry, rank: usize, iteration: u64) {
        telemetry
            .sink(rank)
            .record(TelemetryEvent::Checkpoint { iteration });
    }

    /// The `(rank, seq)` of every line written so far, in file order.
    fn written(buf: &SharedBuf) -> Vec<(u64, u64)> {
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        text.lines()
            .map(|line| {
                let record = json::parse_record(line).unwrap();
                (record.rank, record.seq)
            })
            .collect()
    }

    #[test]
    fn a_rank_racing_one_barrier_ahead_is_flushed_by_its_own_generation() {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
        record_on(&telemetry, 0, 0);
        record_on(&telemetry, 1, 0);
        telemetry.sink(0).publish_watermark(4);
        telemetry.sink(1).publish_watermark(4);
        // Rank 0 passes barrier 4, records and publishes 5 before the
        // flusher of generation 4 runs.
        record_on(&telemetry, 0, 1);
        telemetry.sink(0).publish_watermark(5);
        record_on(&telemetry, 0, 2);
        telemetry.flush_consistent(4);
        assert_eq!(written(&buf), [(0, 0), (1, 0)]);
        telemetry.flush_consistent(5);
        assert_eq!(written(&buf), [(0, 0), (1, 0), (0, 1)]);
        telemetry.flush_all();
        assert_eq!(written(&buf), [(0, 0), (1, 0), (0, 1), (0, 2)]);
        assert_eq!(telemetry.lost_records(), 0);
    }

    #[test]
    fn a_failed_attempt_is_written_once_before_its_restart() {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
        record_on(&telemetry, 0, 0);
        telemetry.sink(0).publish_watermark(3);
        // The barrier fails: no flush of generation 3. The failed attempt
        // records one more event, then the restart re-runs iteration 3.
        record_on(&telemetry, 0, 1);
        record_on(&telemetry, 0, 2);
        record_on(&telemetry, 1, 0);
        telemetry.sink(0).publish_watermark(3);
        telemetry.sink(1).publish_watermark(3);
        telemetry.flush_consistent(3);
        let expected = [(0, 0), (0, 1), (0, 2), (1, 0)];
        assert_eq!(written(&buf), expected);
        telemetry.flush_consistent(3);
        telemetry.flush_all();
        assert_eq!(written(&buf), expected, "nothing is written twice");
    }

    #[test]
    fn successive_handles_continue_the_stream_seq_and_clock() {
        let telemetry = Telemetry::new();
        telemetry
            .sink(2)
            .record_at(110, TelemetryEvent::BarrierWait { iteration: 0 });
        // Stale across handles too.
        telemetry
            .sink(2)
            .record_at(40, TelemetryEvent::BarrierWait { iteration: 1 });
        telemetry
            .sink(2)
            .record(TelemetryEvent::Checkpoint { iteration: 1 });
        let stamps: Vec<(u64, u64)> = telemetry
            .records(2)
            .iter()
            .map(|r| (r.seq, r.sim_ns))
            .collect();
        assert_eq!(stamps, [(0, 110), (1, 110), (2, 110)]);
        assert_eq!(telemetry.total_recorded(), 3);
    }

    #[test]
    fn a_second_sink_for_a_held_stream_is_detached_and_counts_lost() {
        let telemetry = Telemetry::new();
        let mut held = telemetry.sink(0);
        held.record(TelemetryEvent::Checkpoint { iteration: 0 });
        let mut second = telemetry.sink(0);
        second.record_at(500, TelemetryEvent::Checkpoint { iteration: 1 });
        second.record(TelemetryEvent::Checkpoint { iteration: 2 });
        assert!(
            telemetry.records(0).is_empty(),
            "a held stream is not parked"
        );
        drop(second);
        assert_eq!(telemetry.lost_records_by_rank(), [2]);
        held.record(TelemetryEvent::Checkpoint { iteration: 3 });
        drop(held);
        let stamps: Vec<(u64, u64)> = telemetry
            .records(0)
            .iter()
            .map(|r| (r.seq, r.sim_ns))
            .collect();
        assert_eq!(stamps, [(0, 0), (1, 0)], "the holder's stream is untouched");
    }

    /// Accepts `budget` bytes, then fails every call with `ENOSPC`.
    struct FullDisk {
        bytes: StdArc<StdMutex<Vec<u8>>>,
        budget: usize,
        calls_after_failure: StdArc<StdMutex<usize>>,
        failed: bool,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.failed {
                *self.calls_after_failure.lock().unwrap() += 1;
            }
            if self.budget == 0 {
                self.failed = true;
                return Err(std::io::Error::from_raw_os_error(28));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.bytes.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_full_disk_retires_the_writer_and_counts_every_unwritten_record() {
        let bytes = StdArc::new(StdMutex::new(Vec::new()));
        let calls_after_failure = StdArc::new(StdMutex::new(0));
        let writer = FullDisk {
            bytes: StdArc::clone(&bytes),
            budget: 1000,
            calls_after_failure: StdArc::clone(&calls_after_failure),
            failed: false,
        };
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(writer));
        for generation in 0..6 {
            let mut sinks: Vec<RankSink> = (0..2).map(|rank| telemetry.sink(rank)).collect();
            for sink in &mut sinks {
                for _ in 0..3 {
                    sink.record(TelemetryEvent::BarrierWait {
                        iteration: generation,
                    });
                }
                sink.publish_watermark(generation);
            }
            telemetry.flush_consistent(generation);
        }
        telemetry
            .sink(1)
            .record(TelemetryEvent::Checkpoint { iteration: 6 });
        telemetry.flush_all();

        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let complete = text.matches('\n').count() as u64;
        assert!(complete > 0 && complete < 37, "the disk fills mid-run");
        assert_eq!(
            complete + telemetry.lost_records(),
            telemetry.total_recorded()
        );
        assert_eq!(
            telemetry.lost_records_by_rank().iter().sum::<u64>(),
            telemetry.lost_records()
        );
        assert_eq!(*calls_after_failure.lock().unwrap(), 0, "retired for good");
        let summary = TraceSummary::from_lines(text.lines()).unwrap();
        assert_eq!(summary.total_events() as u64, complete);
        assert_eq!(summary.truncated_lines, u64::from(!text.ends_with('\n')));
    }
}
