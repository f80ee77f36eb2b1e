//! The traced run: every per-layer metric, measured from outside.
//!
//! End-to-end metrics are measured with nothing attached
//! (`workloads::run_end_to_end`). This run instead times single public calls
//! into each layer on the workload's own shapes, repeats one short solve with
//! the library's flight recorder attached for the counts and the simulated
//! critical path, and wraps every one of those calls in a benchmark-side
//! span. The `hve.*` and `service.*` rungs are the exception to "own
//! shapes": they always run the `tiny()` jobs `service-burst` submits,
//! because the Halo Voxel Exchange baseline is not feasible on every shape.

use crate::api::{self, Engine, JobDesc, Method, Recorder, Shape, StoreFixture, Transport};
use crate::calibration;
use crate::metrics::PER_LAYER;
use crate::scratch::Scratch;
use crate::spans::Spans;
use crate::stats::{median, percentile, Ops};
use crate::workloads::{
    self, check_costs, iterations_to_tolerance, killed_store, run_burst, timed_resume, timed_solve,
    Kind, Workload,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Samples per micro-timing.
const SAMPLES: usize = 30;

pub struct Ladder {
    pub values: BTreeMap<&'static str, f64>,
    pub ops: Ops,
}

impl Ladder {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown {name}");
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

pub fn run(w: &Workload, seed: u64, scratch: &Scratch) -> Ladder {
    let started = Instant::now();
    let mut l = Ladder {
        values: BTreeMap::new(),
        ops: Ops::default(),
    };
    let mut spans = Spans::new(w.name);
    let (_, total_s) = spans.scope("trace_run", |spans| {
        let (dataset, synthesize_s) =
            spans.scope("sim.synthesize", |_| api::synthesize(w.shape, seed));
        l.set("sim.synthesize_s", synthesize_s);
        kernels(&mut l, spans, &dataset);
        decomposition(&mut l, spans, w, &dataset);
        cluster_micro(&mut l, spans, w, &dataset);
        solves(&mut l, spans, w, &dataset);
        durability(&mut l, spans, w, &dataset, scratch);
        // The jobs `service-burst` submits, whatever the workload.
        let tiny = api::synthesize(Shape::tiny(), seed);
        let burst_solver = workloads::all()
            .into_iter()
            .find(|w| w.kind == Kind::ServiceBurst)
            .expect("the service workload exists")
            .solver;
        hve(&mut l, spans, &tiny, &burst_solver.with_iterations(5));
        service(&mut l, spans, &tiny, &burst_solver, seed);
    });
    l.set(
        "bench.trace_run_s",
        total_s.max(started.elapsed().as_secs_f64()),
    );

    for metric in &PER_LAYER {
        let present = l.values.contains_key(metric.name);
        l.ops.check(present, || {
            format!("{}: {} was not measured", w.name, metric.name)
        });
        l.values.entry(metric.name).or_insert(0.0);
    }
    let finite = l.values.values().all(|v| v.is_finite());
    l.ops.check(finite, || {
        format!("{}: a layer metric is not finite", w.name)
    });

    print_ladder(w, &l);
    spans.print_tree();
    let path = scratch.trace_file(w.name);
    match spans.write(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(error) => l.ops.check(false, || {
            format!("{}: writing {}: {error}", w.name, path.display())
        }),
    }
    l
}

/// fft and sim at the window size and slice count.
fn kernels(l: &mut Ladder, spans: &mut Spans, dataset: &api::Dataset) {
    let mut k = api::Kernels::new(dataset);
    let n = k.window_px() as f64;
    l.set(
        "fft.fft1d_s",
        0.5 * spans.sample("fft.fft1d", SAMPLES, || k.fft1d_pair()),
    );
    let fwd = spans.sample("fft.fft2_fwd", SAMPLES, || k.fft2_forward());
    let inv = spans.sample("fft.fft2_inv", SAMPLES, || k.fft2_inverse());
    l.set("fft.fft2_fwd_s", fwd);
    l.set("fft.fft2_inv_s", inv);
    // The 5 N log2 N model of one n x n complex transform, and one read plus
    // one write of the field; computed from sizes, not measured.
    let flops = 5.0 * n * n * (n * n).log2();
    l.set("fft.flops_computed", flops);
    l.set("fft.bytes_computed", 2.0 * n * n * 16.0);
    l.set("fft.gflops_computed", flops / fwd * 1e-9);

    l.set(
        "sim.forward_with_s",
        spans.sample("sim.forward_with", SAMPLES, || k.forward_with()),
    );
    let gradient = spans.sample("sim.probe_gradient_into", SAMPLES, || {
        std::hint::black_box(k.probe_gradient_into());
    });
    l.set("sim.probe_gradient_into_s", gradient);
    let ffts = k.ffts_per_gradient() as f64;
    l.set("sim.ffts_per_gradient", ffts);
    l.set("sim.fft_share", ffts * 0.5 * (fwd + inv) / gradient);
    l.set(
        "sim.patch_io_s",
        spans.sample("sim.patch_io", SAMPLES, || k.patch_io()),
    );
    l.set(
        "sim.apply_step_s",
        spans.sample("sim.apply_step", SAMPLES, || k.apply_step()),
    );
}

/// tiling, stitch and one round of directional passes on the workload grid.
fn decomposition(l: &mut Ladder, spans: &mut Spans, w: &Workload, dataset: &api::Dataset) {
    l.set(
        "tiling.grid_new_s",
        spans.sample("tiling.grid_new", SAMPLES, || {
            std::hint::black_box(api::grid_new(dataset, &w.solver));
        }),
    );
    let stitch = api::Stitch::new(dataset, &w.solver);
    l.set(
        "stitch.stitch_tiles_s",
        spans.sample("stitch.stitch_tiles", SAMPLES, || {
            std::hint::black_box(stitch.run());
        }),
    );
    let (passes, _) = spans.scope("gd.passes", |_| {
        api::passes_seconds(dataset, &w.solver, SAMPLES)
    });
    let passes = l.ops.attempt(&format!("{} gd.passes", w.name), passes);
    l.set("gd.passes_s", passes.unwrap_or(0.0));
    l.set(
        "gd.pass_rounds_per_iter",
        api::pass_rounds_per_iteration(dataset, &w.solver) as f64,
    );
}

/// The process is pinned to one CPU (see `calibration`), which is what the
/// lockstep backend is measured on; the threaded backend's ranks get every
/// CPU the process may use, or there is no parallelism to report.
fn on_its_cpus<T>(transport: Transport, work: impl FnOnce() -> T) -> T {
    match transport {
        Transport::Lockstep => work(),
        Transport::Threaded => calibration::unpinned(work),
    }
}

/// Ranks doing only barriers / only a border-strip ping-pong.
fn cluster_micro(l: &mut Ladder, spans: &mut Spans, w: &Workload, dataset: &api::Dataset) {
    let ranks = w.solver.ranks().max(2);
    let strip = api::border_strip_values(dataset, &w.solver);
    for (transport, barrier_name, send_recv_name) in [
        (
            Transport::Lockstep,
            "cluster.barrier_s.lockstep",
            "cluster.send_recv_s.lockstep",
        ),
        (
            Transport::Threaded,
            "cluster.barrier_s.threaded",
            "cluster.send_recv_s.threaded",
        ),
    ] {
        let (barrier, _) = spans.scope(barrier_name, |_| {
            on_its_cpus(transport, || api::barrier_seconds(transport, ranks, 200))
        });
        let barrier = l
            .ops
            .attempt(&format!("{} {barrier_name}", w.name), barrier);
        l.set(barrier_name, barrier.unwrap_or(0.0));
        let (send_recv, _) = spans.scope(send_recv_name, |_| {
            on_its_cpus(transport, || {
                api::send_recv_seconds(transport, ranks, strip, 100)
            })
        });
        let send_recv = l
            .ops
            .attempt(&format!("{} {send_recv_name}", w.name), send_recv);
        l.set(send_recv_name, send_recv.unwrap_or(0.0));
    }
}

/// One short solve plain, the same solve with the flight recorder, and the
/// threaded 1x1 / 1x2 pair.
fn solves(l: &mut Ladder, spans: &mut Spans, w: &Workload, dataset: &api::Dataset) {
    let solver = w.solver.with_iterations(w.trace_iterations);
    let gd = Method::GradientDecomposition;
    let mut solve = |l: &mut Ladder,
                     name: &str,
                     solver: &api::Solver,
                     transport: Transport,
                     recorder: Option<&Recorder>| {
        let (solved, _) = spans.scope(name, |spans| {
            let start = Instant::now();
            let solved = on_its_cpus(transport, || {
                timed_solve(dataset, solver, gd, transport, recorder, None)
            });
            if let Ok(job) = &solved {
                spans.gaps("iteration", start, &job.stamps_s);
            }
            solved
        });
        let solved = l.ops.attempt(&format!("{} {name}", w.name), solved);
        if let Some(job) = &solved {
            check_costs(&mut l.ops, &format!("{} {name}", w.name), &job.solved.costs);
        }
        solved
    };

    // Discarded: the first solve of a process pays for cold caches.
    solve(
        l,
        "solve.warm_up",
        &solver.with_iterations(3),
        Transport::Lockstep,
        None,
    );

    let plain = solve(l, "solve.plain", &solver, Transport::Lockstep, None);
    let recorder = Recorder::new();
    let traced = solve(
        l,
        "solve.traced",
        &solver,
        Transport::Lockstep,
        Some(&recorder),
    );
    let threaded_iterations = w.trace_iterations.min(10);
    let one = solve(
        l,
        "solve.threaded_1x1",
        &solver
            .with_grid((1, 1))
            .with_iterations(threaded_iterations),
        Transport::Threaded,
        None,
    );
    let two = solve(
        l,
        "solve.threaded_1x2",
        &solver
            .with_grid((1, 2))
            .with_iterations(threaded_iterations),
        Transport::Threaded,
        None,
    );

    if let Some(plain) = &plain {
        let iter_s = median(&plain.gaps_s());
        l.set("gd.iter_s_p50", iter_s);
        let probes = w.shape.probes() as f64;
        let explained = probes * l.get("sim.probe_gradient_into_s") / iter_s;
        let pass_share = l.get("gd.pass_rounds_per_iter") * l.get("gd.passes_s") / iter_s;
        l.set("gd.iter_explained_share", explained);
        l.set("gd.pass_share", pass_share);
        l.set("gd.unexplained_share", 1.0 - explained - pass_share);
        let to_tol = iterations_to_tolerance(&plain.solved.costs);
        l.set("gd.iters_to_tol", to_tol.map_or(0.0, |n| n as f64));
        l.set(
            "gd.time_to_tol_s",
            to_tol.map_or(0.0, |n| plain.stamps_s[n - 1]),
        );
        l.set("cluster.compute_share", plain.solved.compute_share);
        l.set("cluster.wait_share", plain.solved.wait_share);
        l.set("cluster.comm_share", plain.solved.comm_share);
        l.set("cluster.retransmits", plain.solved.retransmits as f64);
        l.set(
            "cluster.iteration_restarts",
            plain.solved.iteration_restarts as f64,
        );
    }
    if let (Some(plain), Some(traced)) = (&plain, &traced) {
        l.ops.check(
            traced.solved.volume_hash == plain.solved.volume_hash,
            || {
                format!(
                    "{}: the traced solve's volume differs from the plain one",
                    w.name
                )
            },
        );
        let summary = recorder.summary();
        let iterations = w.trace_iterations as f64;
        l.set("cluster.msgs_per_iter", summary.sends as f64 / iterations);
        l.set(
            "cluster.bytes_per_iter",
            summary.send_bytes as f64 / iterations,
        );
        l.set(
            "telemetry.overhead_share",
            median(&traced.gaps_s()) / median(&plain.gaps_s()) - 1.0,
        );
        l.set("telemetry.records", summary.records as f64);
        l.set("telemetry.lost_records", summary.lost_records as f64);
        l.set("telemetry.sim_critical_path_s", summary.sim_critical_path_s);
        l.set(
            "telemetry.sim_to_wall_ratio",
            summary.sim_critical_path_s / traced.wall_s,
        );
    }
    if let (Some(one), Some(two)) = (&one, &two) {
        let (one, two) = (median(&one.gaps_s()), median(&two.gaps_s()));
        l.set("cluster.threaded_iter_s_p50", two);
        l.set("cluster.strong_scaling_eff_2r", one / (2.0 * two));
    }
}

/// The public store calls on the workload's slot sizes, the same job with and
/// without a store, and a few resumes of it.
fn durability(
    l: &mut Ladder,
    spans: &mut Spans,
    w: &Workload,
    dataset: &api::Dataset,
    scratch: &Scratch,
) {
    let name = w.name;
    let fixture = StoreFixture::open(&scratch.store("ladder-fixture"), dataset, &w.solver);
    if let Some(mut fixture) = l.ops.attempt(&format!("{name} store fixture"), fixture) {
        let epochs = if w.kind == Kind::DirectSolve {
            8
        } else {
            SAMPLES
        };
        let (mut write_s, mut commit_s, mut recover_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes_per_epoch = 0u64;
        let mut failure = None;
        for _ in 0..epochs {
            bytes_per_epoch = 0;
            for slot in 0..fixture.slots() {
                let start = Instant::now();
                let written = fixture.write_slot(slot);
                let end = Instant::now();
                spans.leaf("durability.write_slot", start, end);
                write_s.push((end - start).as_secs_f64());
                match written {
                    Ok(bytes) => bytes_per_epoch += bytes,
                    Err(error) => failure = Some(error),
                }
            }
            let start = Instant::now();
            let committed = fixture.commit();
            let middle = Instant::now();
            let recovered = fixture.recover();
            let end = Instant::now();
            spans.leaf("durability.commit", start, middle);
            spans.leaf("durability.recover", middle, end);
            commit_s.push((middle - start).as_secs_f64());
            recover_s.push((end - middle).as_secs_f64());
            if let Err(error) = committed.and(recovered.map(|_| ())) {
                failure = Some(error);
            }
        }
        l.ops.check(failure.is_none(), || {
            format!("{name} store calls: {}", failure.unwrap_or_default())
        });
        l.set("durability.write_slot_s", median(&write_s));
        l.set("durability.commit_s", median(&commit_s));
        l.set("durability.recover_s", median(&recover_s));
        l.set("durability.bytes_per_epoch", bytes_per_epoch as f64);
    }

    // The same short job through the engine without a store, then with one
    // and a kill armed at its last-but-one barrier: the killed run gives the
    // durable per-iteration time and leaves the template the resumes clone.
    let solver = w.solver.with_iterations(w.trace_iterations);
    let engine = Engine::new(solver.ranks().max(4));
    let (plain, _) = spans.scope("engine.plain_job", |_| {
        engine
            .submit(dataset, &JobDesc::new(solver))
            .map(|job| job.wait())
    });
    let plain = l.ops.attempt(&format!("{name} engine.plain_job"), plain);
    let template = scratch.store("ladder-template");
    let (killed, _) = spans.scope("engine.durable_job", |_| {
        killed_store(&engine, dataset, &solver, &template)
    });
    let killed = l.ops.attempt(&format!("{name} engine.durable_job"), killed);
    if let (Some(plain), Some(durable_s)) = (&plain, killed) {
        l.ops.check(plain.completed, || {
            format!(
                "{name} engine.plain_job did not complete: {:?}",
                plain.error
            )
        });
        let plain_iter = plain.run_s / w.trace_iterations as f64;
        let durable_iter =
            durable_s / (w.trace_iterations - workloads::ITERATIONS_AFTER_RESUME) as f64;
        l.set("durability.persist_share", 1.0 - plain_iter / durable_iter);

        let live = scratch.store("ladder-resume");
        let mut resume_s = Vec::new();
        for i in 0..5 {
            let start = Instant::now();
            let resumed = timed_resume(&engine, &template, &live);
            spans.leaf("engine.resume", start, Instant::now());
            let what = format!("{name} engine.resume {i}");
            if let Some((solved, _, latency)) = l.ops.attempt(&what, resumed) {
                let reference = plain.solved.as_ref().map(|s| s.volume_hash);
                l.ops.check(Some(solved.volume_hash) == reference, || {
                    format!("{what}: resumed volume differs from the uninterrupted run")
                });
                resume_s.push(latency);
            }
        }
        if !resume_s.is_empty() {
            l.set("durability.resume_s_p50", median(&resume_s));
        }
    }
}

/// A 5-iteration 2x2 Halo Voxel Exchange solve on the `tiny()` dataset.
fn hve(l: &mut Ladder, spans: &mut Spans, tiny: &api::Dataset, solver: &api::Solver) {
    let ratio = api::hve_redundant_probe_ratio(tiny, solver);
    let ratio = l.ops.attempt("hve.redundant_probe_ratio", ratio);
    l.set("hve.redundant_probe_ratio", ratio.unwrap_or(0.0));
    let mut iter_s = Vec::new();
    let mut peak = 0;
    for _ in 0..10 {
        let start = Instant::now();
        let solved = timed_solve(
            tiny,
            solver,
            Method::HaloVoxelExchange,
            Transport::Lockstep,
            None,
            None,
        );
        spans.leaf("hve.solve", start, Instant::now());
        if let Some(job) = l.ops.attempt("hve.solve", solved) {
            check_costs(&mut l.ops, "hve.solve", &job.solved.costs);
            iter_s.extend(job.gaps_s());
            peak = peak.max(job.solved.peak_rank_bytes);
        }
    }
    if !iter_s.is_empty() {
        l.set("hve.iter_s_p50", median(&iter_s));
        l.set("hve.peak_rank_bytes", peak as f64);
    }
}

/// A 200-job burst and 100 sequential jobs of the `service-burst` mix.
fn service(
    l: &mut Ladder,
    spans: &mut Spans,
    tiny: &api::Dataset,
    solver: &api::Solver,
    seed: u64,
) {
    let (burst, _) = spans.scope("service.burst", |_| {
        run_burst(&mut l.ops, "service probe", tiny, solver, 200, seed)
    });
    let run_s = |method: Method| -> Vec<f64> {
        burst
            .outcomes
            .iter()
            .filter(|(desc, outcome)| desc.method == method && outcome.completed)
            .map(|(_, outcome)| outcome.run_s)
            .collect()
    };
    let queue_s: Vec<f64> = burst.outcomes.iter().map(|(_, o)| o.queue_s).collect();
    let heals: u64 = burst
        .outcomes
        .iter()
        .filter_map(|(_, o)| o.solved.as_ref())
        .map(|s| s.substitutions)
        .sum();
    l.set(
        "service.jobs_per_s",
        burst.outcomes.len() as f64 / burst.wall_s,
    );
    l.set("service.submit_s_p50", median(&burst.submit_s));
    l.set("service.heals", heals as f64);
    for (name, samples) in [
        ("service.queue_s_p50", queue_s),
        ("service.run_s_p50.gd", run_s(Method::GradientDecomposition)),
        ("service.run_s_p50.hve", run_s(Method::HaloVoxelExchange)),
    ] {
        l.ops.check(!samples.is_empty(), || {
            format!("service probe: no sample for {name}")
        });
        if !samples.is_empty() {
            l.set(name, median(&samples));
        }
    }

    let engine = Engine::new(4);
    let desc = JobDesc::new(*solver);
    let (mut latency_s, mut overhead_s) = (Vec::new(), Vec::new());
    for i in 0..100 {
        let start = Instant::now();
        let outcome = engine.submit(tiny, &desc).map(|job| job.wait());
        let end = outcome
            .as_ref()
            .map_or_else(|_| Instant::now(), |o| o.finished);
        spans.leaf("service.submit_wait", start, end);
        if let Some(outcome) = l.ops.attempt(&format!("service probe job {i}"), outcome) {
            l.ops.check(outcome.completed, || {
                format!(
                    "service probe job {i} did not complete: {:?}",
                    outcome.error
                )
            });
            latency_s.push((end - start).as_secs_f64());
            overhead_s.push((end - start).as_secs_f64() - outcome.run_s);
        }
    }
    if !latency_s.is_empty() {
        l.set("service.job_latency_s_p50", median(&latency_s));
        l.set("service.job_latency_s_p90", percentile(&latency_s, 90.0));
        l.set("service.overhead_s_p50", median(&overhead_s));
    }
    l.set(
        "service.metrics_snapshot_s",
        spans.sample("service.metrics_snapshot", SAMPLES, || {
            std::hint::black_box(engine.metrics_snapshot_heals());
        }),
    );
    l.set(
        "service.health_snapshot_s",
        spans.sample("service.health_snapshot", SAMPLES, || {
            std::hint::black_box(engine.health_snapshot_queue_depth());
        }),
    );
}

/// The outside-in ladder under one iteration: each rung's time, its share of
/// the iteration, what it is expected to move, and the unexplained residual.
fn print_ladder(w: &Workload, l: &Ladder) {
    println!("  per-layer metrics ({}):", w.name);
    for metric in &PER_LAYER {
        println!(
            "    {:<32} {:>16.9} {:<8} -> {}",
            metric.name,
            l.get(metric.name),
            metric.unit,
            metric.moves
        );
    }
    let iter_s = l.get("gd.iter_s_p50");
    let probes = w.shape.probes() as f64;
    let gradient = probes * l.get("sim.probe_gradient_into_s");
    let ffts = gradient * l.get("sim.fft_share");
    let passes = l.get("gd.pass_rounds_per_iter") * l.get("gd.passes_s");
    let unexplained = l.get("gd.unexplained_share");
    let share = |s: f64| 100.0 * s / iter_s.max(f64::MIN_POSITIVE);
    println!("  ladder under one iteration ({}):", w.name);
    println!("    iteration (gd.iter_s_p50)              {iter_s:>10.6} s  100.0%");
    println!(
        "      {probes:.0} x sim.probe_gradient_into       {gradient:>10.6} s  {:>5.1}% of iteration",
        share(gradient)
    );
    println!(
        "        {:.0} x fft2 each                     {ffts:>10.6} s  {:>5.1}% of gradient",
        l.get("sim.ffts_per_gradient"),
        100.0 * l.get("sim.fft_share")
    );
    println!(
        "      {:.0} x run_accumulation_passes       {passes:>10.6} s  {:>5.1}% of iteration",
        l.get("gd.pass_rounds_per_iter"),
        share(passes)
    );
    println!(
        "      unexplained (TileWorker accumulate/update, barrier, cost) {:>5.1}%{}",
        100.0 * unexplained,
        if unexplained.abs() > 0.15 {
            "  WARNING: iteration under-explained by more than 15%"
        } else {
            ""
        }
    );
}
