//! Telemetry overhead benchmark: what the flight recorder costs on runs
//! that never fault.
//!
//! The ISSUE 7 acceptance budget is **≤ 10% iteration-time overhead with the
//! recorder on**, so each pair below runs the identical fault-free GD 2×2
//! reconstruction twice — once bare, once with a [`Telemetry`] handle in the
//! job context — under the two engine paths that instrument differently:
//!
//! * `fail_fast` records sends, receives and iteration begin/end pairs;
//! * `spare_pool` (membership mode) additionally records heartbeats,
//!   barrier waits and checkpoints, and exercises the per-barrier
//!   `flush_consistent` watermark walk (a no-op write without a durable
//!   sink, which is the steady-state configuration).
//!
//! `record_one_event` prices the primitive itself — one mutex lock plus one
//! ring write.

use criterion::{criterion_group, criterion_main, Criterion};
use ptycho_cluster::{ClusterTopology, LockstepBackend};
use ptycho_core::{GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use ptycho_telemetry::{analysis, Telemetry, TelemetryEvent, TelemetryRecord};
use std::time::Duration;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let dataset = Dataset::synthesize(SyntheticConfig::tiny());
    let config = SolverConfig {
        iterations: 1,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let solver = GradientDecompositionSolver::new(&dataset, config, (2, 2));
    let backend = LockstepBackend::new(ClusterTopology::summit());
    let spare_pool = RecoveryPolicy::SubstituteSpare {
        spares: 1,
        max_iteration_restarts: 1,
    };

    let mut group = c.benchmark_group("telemetry_overhead");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    group.bench_function("gd_2x2_fail_fast_recorder_off", |b| {
        b.iter(|| {
            solver
                .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
                .expect("fault-free run cannot fail")
        })
    });
    group.bench_function("gd_2x2_fail_fast_recorder_on", |b| {
        b.iter(|| {
            // A fresh recorder per run, as the job service attaches one per
            // job — so the figure includes the sink/ring setup cost, not
            // just the steady-state recording.
            let telemetry = Telemetry::new();
            let job = JobContext {
                telemetry: Some(&telemetry),
                ..JobContext::default()
            };
            solver
                .run_job(&backend, RecoveryPolicy::FailFast, &job)
                .expect("fault-free run cannot fail")
        })
    });
    group.bench_function("gd_2x2_spare_pool_recorder_off", |b| {
        b.iter(|| {
            solver
                .run_job(&backend, spare_pool, &JobContext::default())
                .expect("fault-free run cannot fail")
        })
    });
    group.bench_function("gd_2x2_spare_pool_recorder_on", |b| {
        b.iter(|| {
            let telemetry = Telemetry::new();
            let job = JobContext {
                telemetry: Some(&telemetry),
                ..JobContext::default()
            };
            solver
                .run_job(&backend, spare_pool, &job)
                .expect("fault-free run cannot fail")
        })
    });

    // The recording primitive itself: lock + stamp + ring write.
    let telemetry = Telemetry::new();
    let sink = telemetry.sink(0);
    group.bench_function("record_one_event", |b| {
        b.iter(|| {
            sink.record(TelemetryEvent::BarrierWait { iteration: 1 });
        })
    });
    group.finish();
}

/// Builds a deterministic ~48k-record multi-rank trace: 8 ranks, 1000
/// iterations, each iteration bracketing one ring send/receive pair. Big
/// enough that the analysis means sit far above timer noise, synthesized
/// (not recorded) so the bench prices the analysis pass alone.
fn synthetic_trace() -> Vec<TelemetryRecord> {
    const RANKS: u64 = 8;
    const ITERATIONS: u64 = 1_000;
    const TAG: u64 = 7;
    let mut records = Vec::with_capacity((RANKS * ITERATIONS * 6) as usize);
    for rank in 0..RANKS {
        let mut seq = 0;
        let mut sim_ns = 0;
        let mut push = |seq: &mut u64, sim_ns: u64, event: TelemetryEvent| {
            records.push(TelemetryRecord {
                rank,
                seq: *seq,
                sim_ns,
                job: 0,
                event,
            });
            *seq += 1;
        };
        for iteration in 0..ITERATIONS {
            // Per-iteration ring traffic: send to the next slot, receive
            // from the previous one, correlation ids exactly as the
            // backends stamp them (sender slot << 32 | send counter).
            push(
                &mut seq,
                sim_ns,
                TelemetryEvent::IterationBegin {
                    iteration,
                    attempt: 0,
                },
            );
            sim_ns += 40;
            push(
                &mut seq,
                sim_ns,
                TelemetryEvent::CommSend {
                    to: (rank + 1) % RANKS,
                    tag: TAG,
                    bytes: 4096,
                    corr: (rank << 32) | iteration,
                },
            );
            sim_ns += 60;
            push(
                &mut seq,
                sim_ns,
                TelemetryEvent::CommRecv {
                    from: (rank + RANKS - 1) % RANKS,
                    tag: TAG,
                    bytes: 4096,
                    corr: (((rank + RANKS - 1) % RANKS) << 32) | iteration,
                },
            );
            sim_ns += 900;
            push(
                &mut seq,
                sim_ns,
                TelemetryEvent::IterationEnd {
                    iteration,
                    attempt: 0,
                    cost: 1.0 / (iteration + 1) as f64,
                    compute_ns: 900 * (iteration + 1),
                    comm_ns: sim_ns - 900 * (iteration + 1),
                },
            );
            push(&mut seq, sim_ns, TelemetryEvent::BarrierWait { iteration });
            sim_ns += 10;
        }
    }
    records
}

fn bench_trace_analysis(c: &mut Criterion) {
    let records = synthetic_trace();
    let mut group = c.benchmark_group("telemetry_analysis");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    group.bench_function("span_build", |b| {
        b.iter(|| analysis::span_graph(&records, 0))
    });
    group.bench_function("critical_path", |b| {
        b.iter(|| analysis::critical_path(&records, 0))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead, bench_trace_analysis);
criterion_main!(benches);
