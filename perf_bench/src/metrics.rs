//! The metric tables: names, units, directions, bounds, and which end-to-end
//! metric each layer metric is expected to move. `BENCHMARK.json` is printed
//! from these tables (`--manifest`), so the file and the program cannot
//! drift apart.

use crate::workloads::Workload;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The bound of every timing and rate: the largest the contract allows.
/// Pinned and calibrated, ten 25-second runs on the 2-core shared box this was
/// written on spread (quartile distance over median) by 1 to 7 %, and by up
/// to 10 % in loud hours and on `gd-durable-2x2`, whose latency is half
/// `fsync`; a bound is per metric, the driver wants spreads under a third of
/// it, and its box is louder than this one. See the README.
const TIMING_BOUND: f64 = 0.25;

/// What a user of the system sees, on every workload. A workload is a stream
/// of reconstruction jobs from one closed-loop client; see the README for
/// what a "job" is on each.
pub const END_TO_END: [EndToEndMetric; 5] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEndMetric {
        name: "iter_s_p50",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEndMetric {
        name: "probes_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEndMetric {
        name: "peak_rank_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEndMetric {
        name: "job_latency_s_p50",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric(s) and workload(s) this layer metric should
    /// move; printed beside the value in the ladder.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const KERNEL_MOVES: &str =
    "iter_s_p50, probes_per_s, job_latency on gd-compute-1r; <=30% of that on gd-pass-3x3; none elsewhere";
const PASS_MOVES: &str = "iter_s_p50 on gd-pass-3x3 only";
const CLUSTER_MOVES: &str =
    "iter_s_p50 on gd-pass-3x3 and gd-durable-2x2; none on gd-compute-1r (zero messages)";
const PERSIST_MOVES: &str =
    "durable_iter_s (printed by gd-durable-2x2); the one persisted iteration in its job_latency";
const RESUME_MOVES: &str = "job_latency_s_p50, iter_s_p50 on gd-durable-2x2";
const SERVICE_MOVES: &str = "job_latency_s_p50/p90, probes_per_s on service-burst";
const REPORTED: &str = "none directly (reported, never gated)";

/// Single layers, measured from outside on the workload's own shapes.
pub const PER_LAYER: [LayerMetric; 62] = [
    layer("fft.fft1d_s", "s", Lower, KERNEL_MOVES),
    layer("fft.fft2_fwd_s", "s", Lower, KERNEL_MOVES),
    layer("fft.fft2_inv_s", "s", Lower, KERNEL_MOVES),
    layer("fft.flops_computed", "count", Lower, KERNEL_MOVES),
    layer("fft.bytes_computed", "bytes", Lower, KERNEL_MOVES),
    layer("fft.gflops_computed", "GFLOP/s", Higher, KERNEL_MOVES),
    layer("sim.forward_with_s", "s", Lower, KERNEL_MOVES),
    layer("sim.probe_gradient_into_s", "s", Lower, KERNEL_MOVES),
    layer("sim.ffts_per_gradient", "count", Lower, KERNEL_MOVES),
    layer("sim.fft_share", "ratio", Lower, KERNEL_MOVES),
    layer("sim.patch_io_s", "s", Lower, KERNEL_MOVES),
    layer("sim.apply_step_s", "s", Lower, KERNEL_MOVES),
    layer("sim.synthesize_s", "s", Lower, "setup_s on every workload"),
    layer(
        "gd.iter_s_p50",
        "s",
        Lower,
        "the traced run's own iter_s_p50",
    ),
    layer("gd.iter_explained_share", "ratio", Higher, REPORTED),
    layer("gd.passes_s", "s", Lower, PASS_MOVES),
    layer("gd.pass_rounds_per_iter", "count", Lower, PASS_MOVES),
    layer("gd.pass_share", "ratio", Lower, PASS_MOVES),
    layer("gd.unexplained_share", "ratio", Lower, REPORTED),
    layer(
        "gd.time_to_tol_s",
        "s",
        Lower,
        "job_latency on gd-compute-1r (0 when the traced solve is too short to converge)",
    ),
    layer(
        "gd.iters_to_tol",
        "count",
        Lower,
        "job_latency on gd-compute-1r (0 when the traced solve is too short to converge)",
    ),
    layer(
        "tiling.grid_new_s",
        "s",
        Lower,
        "setup_s; job_latency tail on gd-pass-3x3",
    ),
    layer(
        "stitch.stitch_tiles_s",
        "s",
        Lower,
        "job_latency tail on gd-pass-3x3",
    ),
    layer("cluster.barrier_s.lockstep", "s", Lower, CLUSTER_MOVES),
    layer("cluster.barrier_s.threaded", "s", Lower, REPORTED),
    layer("cluster.send_recv_s.lockstep", "s", Lower, CLUSTER_MOVES),
    layer("cluster.send_recv_s.threaded", "s", Lower, REPORTED),
    layer("cluster.msgs_per_iter", "count", Lower, CLUSTER_MOVES),
    layer("cluster.bytes_per_iter", "bytes", Lower, CLUSTER_MOVES),
    layer("cluster.compute_share", "ratio", Higher, REPORTED),
    layer("cluster.wait_share", "ratio", Lower, REPORTED),
    layer("cluster.comm_share", "ratio", Lower, REPORTED),
    layer("cluster.retransmits", "count", Lower, "expect 0"),
    layer("cluster.iteration_restarts", "count", Lower, "expect 0"),
    layer("cluster.threaded_iter_s_p50", "s", Lower, REPORTED),
    layer("cluster.strong_scaling_eff_2r", "ratio", Higher, REPORTED),
    layer("hve.redundant_probe_ratio", "ratio", Lower, SERVICE_MOVES),
    layer("hve.iter_s_p50", "s", Lower, SERVICE_MOVES),
    layer("hve.peak_rank_bytes", "bytes", Lower, REPORTED),
    layer("durability.write_slot_s", "s", Lower, PERSIST_MOVES),
    layer("durability.commit_s", "s", Lower, PERSIST_MOVES),
    layer("durability.recover_s", "s", Lower, RESUME_MOVES),
    layer("durability.bytes_per_epoch", "bytes", Lower, PERSIST_MOVES),
    layer("durability.persist_share", "ratio", Lower, PERSIST_MOVES),
    layer("durability.resume_s_p50", "s", Lower, RESUME_MOVES),
    layer("service.queue_s_p50", "s", Lower, SERVICE_MOVES),
    layer("service.run_s_p50.gd", "s", Lower, SERVICE_MOVES),
    layer("service.run_s_p50.hve", "s", Lower, SERVICE_MOVES),
    layer("service.job_latency_s_p50", "s", Lower, SERVICE_MOVES),
    layer("service.job_latency_s_p90", "s", Lower, SERVICE_MOVES),
    layer("service.overhead_s_p50", "s", Lower, SERVICE_MOVES),
    layer("service.submit_s_p50", "s", Lower, SERVICE_MOVES),
    layer("service.jobs_per_s", "1/s", Higher, SERVICE_MOVES),
    layer(
        "service.heals",
        "count",
        Lower,
        "expect 1 (one armed rank death)",
    ),
    layer("service.metrics_snapshot_s", "s", Lower, REPORTED),
    layer("service.health_snapshot_s", "s", Lower, REPORTED),
    layer(
        "telemetry.overhead_share",
        "ratio",
        Lower,
        "iter_s_p50 on any run with a recorder",
    ),
    layer("telemetry.records", "count", Lower, REPORTED),
    layer("telemetry.lost_records", "count", Lower, "expect 0"),
    layer("telemetry.sim_critical_path_s", "s", Lower, REPORTED),
    layer("telemetry.sim_to_wall_ratio", "ratio", Lower, REPORTED),
    layer("bench.trace_run_s", "s", Lower, REPORTED),
];

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The contents of `BENCHMARK.json`.
pub fn manifest(workloads: &[Workload], run_seconds: u64) -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf_bench/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    let quoted: Vec<String> = command.iter().map(|s| json_string(s)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", quoted.join(", ")));
    out.push_str("  \"paths\": [\"perf_bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(text: &str) -> bool {
        text.len() <= 64
            && text.starts_with(|c: char| c.is_ascii_alphanumeric())
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(text: &str) -> bool {
        !text.is_empty()
            && text.len() <= 16
            && text
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn manifest_stays_inside_the_contract() {
        let workloads = crate::workloads::all();
        assert!((2..=8).contains(&workloads.len()));
        let mut names = std::collections::BTreeSet::new();
        for w in &workloads {
            assert!(is_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for m in &END_TO_END {
            assert!(is_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in &PER_LAYER {
            assert!(is_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}", m.name);
        }
        assert!(manifest(&workloads, 25).len() <= 64 * 1024);
    }
}
