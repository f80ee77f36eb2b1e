//! Analytic strong-scaling model regenerating Tables II/III and Fig. 7.
//!
//! The paper's runtime numbers come from real runs on up to 4158 V100 GPUs.
//! This module replays the same decomposition geometry (tile sizes, halo
//! widths, probe assignments, message sizes) against the calibrated hardware
//! model of `ptycho-cluster` to predict, for any GPU count:
//!
//! * the per-GPU memory footprint (delegated to [`crate::memory_model`]),
//! * the runtime for a fixed number of iterations, split into computation,
//!   GPU-waiting and communication time (Fig. 7b),
//! * the strong-scaling efficiency relative to the 6-GPU configuration
//!   ([`strong_scaling_efficiency`]).
//!
//! The model is *calibrated, not predictive in absolute terms*: the caller
//! anchors the single-node (6-GPU) runtime to the paper's measured value via
//! [`ScalingScenario::calibrate_to`], and every other configuration follows
//! from the geometry and the cost model. Per-probe work has two parts — a
//! detector-sized component (the far-field FFTs, independent of the
//! decomposition) and a tile-sized component (multi-slice propagation over the
//! halo-extended tile) — plus a cache-residency speedup as the per-slice
//! working set shrinks, which together reproduce the paper's super-linear
//! strong scaling.

use crate::memory_model::{
    decomposition_geometry, gd_memory_per_gpu, hve_feasible, hve_memory_per_gpu,
    DecompositionGeometry, GPU_VOXEL_BYTES,
};
use ptycho_cluster::{HardwareModel, TimeBreakdown};
use ptycho_sim::dataset::DatasetSpec;

/// The halo width used by the Gradient Decomposition method in the paper.
pub const GD_HALO_PM: f64 = 600.0;
/// The halo width used by the Halo Voxel Exchange baseline in the paper.
pub const HVE_HALO_PM: f64 = 890.0;

/// Strong-scaling efficiency in percent, as defined in the paper (Tables
/// II/III): the speedup relative to the baseline configuration divided by the
/// ideal speedup from the extra GPUs, times 100.
///
/// `baseline` and `scaled` are `(gpus, runtime)` pairs in consistent units.
pub fn strong_scaling_efficiency(baseline: (usize, f64), scaled: (usize, f64)) -> f64 {
    let (base_gpus, base_time) = baseline;
    let (gpus, time) = scaled;
    assert!(base_gpus > 0 && gpus > 0, "GPU counts must be positive");
    assert!(base_time > 0.0 && time > 0.0, "runtimes must be positive");
    let speedup = base_time / time;
    let ideal = gpus as f64 / base_gpus as f64;
    100.0 * speedup / ideal
}

/// Converts seconds to the minutes used in the paper's tables.
fn seconds_to_minutes(seconds: f64) -> f64 {
    seconds / 60.0
}

/// One row of a scaling table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Number of GPUs.
    pub gpus: usize,
    /// Number of Summit-like nodes (6 GPUs per node).
    pub nodes: usize,
    /// Average peak memory per GPU in gigabytes.
    pub memory_gb: f64,
    /// Runtime in minutes for the configured iteration count.
    pub runtime_minutes: f64,
    /// Strong-scaling efficiency (percent) relative to the table's first row.
    pub efficiency_percent: f64,
    /// Runtime breakdown (compute / wait / communication) in seconds.
    pub breakdown: TimeBreakdown,
}

/// The method a scaling point describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// The paper's Gradient Decomposition method.
    GradientDecomposition,
    /// The Halo Voxel Exchange baseline.
    HaloVoxelExchange,
}

/// A complete scaling scenario: dataset geometry, hardware model, and the
/// reconstruction parameters of Sec. VI-A.
#[derive(Clone, Debug)]
pub struct ScalingScenario {
    /// The dataset geometry (Table I).
    pub spec: DatasetSpec,
    /// The calibrated hardware model.
    pub hardware: HardwareModel,
    /// Number of reconstruction iterations (the paper uses 100).
    pub iterations: usize,
    /// Directional-pass rounds per iteration (the paper's default is 1).
    pub passes_per_iteration: usize,
    /// Extra probe-location rows for the Halo Voxel Exchange baseline.
    pub hve_extra_probe_rows: usize,
    /// Multiplier on the detector-sized (tile-independent) share of the
    /// per-probe work; the remaining share scales with the extended tile and
    /// is what produces the work-reduction part of the super-linear speedup.
    pub detector_work_scale: f64,
    /// Calibration constant for the GPU-waiting model (s⁻¹): waiting grows
    /// with the square of the per-probe time, matching the paper's
    /// observation that waiting dominates at small GPU counts and vanishes at
    /// large ones (Fig. 7b).
    pub wait_coefficient: f64,
}

impl ScalingScenario {
    /// A scenario for a dataset with paper defaults and an uncalibrated
    /// Summit-like hardware model.
    pub fn new(spec: DatasetSpec) -> Self {
        Self {
            spec,
            hardware: HardwareModel::summit_v100(),
            iterations: 100,
            passes_per_iteration: 1,
            hve_extra_probe_rows: 2,
            detector_work_scale: 3.0,
            wait_coefficient: 0.4,
        }
    }

    /// Calibrates the hardware throughput so that the Gradient Decomposition
    /// runtime at `gpus` equals `target_minutes` (the paper's measured
    /// single-node runtime), leaving every other prediction to the model.
    pub fn calibrate_to(&mut self, gpus: usize, target_minutes: f64) {
        assert!(target_minutes > 0.0, "target runtime must be positive");
        // The waiting model is nonlinear in the throughput, so a single
        // rescaling does not land exactly on the target; iterate the
        // multiplicative correction to a fixed point.
        for _ in 0..64 {
            let current = self.gd_point_uncalibrated(gpus).runtime_minutes;
            let ratio = current / target_minutes;
            if (ratio - 1.0).abs() < 1e-6 {
                break;
            }
            self.hardware.base_flops *= ratio;
        }
    }

    fn gd_point_uncalibrated(&self, gpus: usize) -> ScalingPoint {
        self.point(Method::GradientDecomposition, gpus, true)
            .expect("Gradient Decomposition is always feasible")
    }

    /// The scaling point for one method and GPU count; `None` when the method
    /// cannot run at that scale (the "NA" entries).
    pub fn point(&self, method: Method, gpus: usize, appp: bool) -> Option<ScalingPoint> {
        let (halo_pm, extra_rows, with_buffers) = match method {
            Method::GradientDecomposition => (GD_HALO_PM, 0, true),
            Method::HaloVoxelExchange => {
                if !hve_feasible(&self.spec, gpus, HVE_HALO_PM) {
                    return None;
                }
                (HVE_HALO_PM, self.hve_extra_probe_rows, false)
            }
        };
        let geometry = decomposition_geometry(&self.spec, gpus, halo_pm, extra_rows);
        let breakdown = self.iteration_breakdown(method, &geometry, appp);
        let total = TimeBreakdown {
            compute: breakdown.compute * self.iterations as f64,
            wait: breakdown.wait * self.iterations as f64,
            communication: breakdown.communication * self.iterations as f64,
        };
        let memory_gb = if with_buffers {
            gd_memory_per_gpu(&self.spec, gpus, halo_pm).gigabytes()
        } else {
            hve_memory_per_gpu(&self.spec, gpus, halo_pm, extra_rows).gigabytes()
        };
        Some(ScalingPoint {
            gpus,
            nodes: self.hardware.topology.nodes_for(gpus),
            memory_gb,
            runtime_minutes: seconds_to_minutes(total.total()),
            efficiency_percent: 100.0,
            breakdown: total,
        })
    }

    /// Per-iteration critical-path breakdown for one configuration.
    fn iteration_breakdown(
        &self,
        method: Method,
        geometry: &DecompositionGeometry,
        appp: bool,
    ) -> TimeBreakdown {
        let slices = self.spec.slices();
        let probes = match method {
            Method::GradientDecomposition => geometry.max_owned,
            Method::HaloVoxelExchange => geometry.max_assigned,
        }
        .max(1.0);

        let t_probe = self.per_probe_seconds(geometry);
        let compute = probes * t_probe;

        // Waiting: ranks wait on each other's in-flight gradient computations
        // before the synchronisation points; the expected stall grows with the
        // square of the per-probe time (long probes at small GPU counts) and
        // with how many probes each rank processes.
        let wait = self.wait_coefficient * probes * t_probe * t_probe;

        // Communication.
        let communication = match method {
            Method::GradientDecomposition => {
                // The paper's whole overlap strip per message: this model is
                // calibrated against Table III / Fig. 7b, which measured
                // whole-strip passes. The solver's simulated clock charges
                // the bytes its pass plan actually sends (the planned
                // sub-rectangles of `gradient_decomp::passes`), which at a
                // high pass frequency is far less — the two clocks differ
                // there by design.
                let bytes_per_message = (2.0
                    * geometry.halo_px
                    * geometry.extended_px.1.max(geometry.extended_px.0)
                    * slices as f64
                    * GPU_VOXEL_BYTES) as usize;
                if appp {
                    // Asynchronous pipelined point-to-point passes: 4 messages
                    // per pass round, largely overlapped with computation.
                    let per_pass = 4.0 * self.hardware.transfer_time(0, 6, bytes_per_message);
                    self.passes_per_iteration as f64 * per_pass
                } else {
                    // The rejected alternative: synchronous global all-reduce
                    // of the full image gradient per pass round (Sec. V).
                    let gradient_bytes = (self.spec.lateral_px() as f64
                        * self.spec.lateral_px() as f64
                        * slices as f64
                        * GPU_VOXEL_BYTES) as usize;
                    self.passes_per_iteration as f64
                        * self.hardware.allreduce_time(gradient_bytes, geometry.gpus)
                }
            }
            Method::HaloVoxelExchange => {
                // Synchronous voxel copy-paste with all 8 neighbours, staged
                // through host memory (no overlap with computation), plus a
                // cluster-wide synchronisation whose cost grows with the number
                // of participating tile pairs — the mechanism behind the sharp
                // runtime increase the paper observes for the baseline past
                // 198 GPUs (Sec. VI-B). The quadratic coefficient is a
                // calibration constant.
                let bytes_per_message = (geometry.halo_px
                    * geometry.extended_px.1.max(geometry.extended_px.0)
                    * slices as f64
                    * GPU_VOXEL_BYTES) as usize;
                let staging_penalty = 4.0;
                let sync_overhead = 2.0e-4 * (geometry.gpus as f64).powi(2);
                16.0 * staging_penalty * self.hardware.transfer_time(0, 6, bytes_per_message)
                    + sync_overhead
            }
        };

        TimeBreakdown {
            compute,
            wait,
            communication,
        }
    }

    /// Seconds per probe-location gradient evaluation for a decomposition.
    fn per_probe_seconds(&self, geometry: &DecompositionGeometry) -> f64 {
        let slices = self.spec.slices();
        // Detector-sized work: the per-slice probe-window transforms and the
        // amplitude projection, independent of the tile decomposition. The
        // multiplier is a calibration constant for how much of the per-probe
        // kernel is insensitive to tile size.
        let detector_flops =
            self.detector_work_scale * HardwareModel::gradient_flops(self.spec.detector_px, slices);
        // Tile-sized work: multi-slice propagation over the extended tile.
        let tile_side = geometry.extended_area().sqrt().max(2.0) as usize;
        let tile_flops = HardwareModel::gradient_flops(tile_side, slices);
        // The cache-relevant working set is a few per-slice tile buffers.
        let working_set = 3.0 * geometry.extended_area() * GPU_VOXEL_BYTES;
        self.hardware.per_probe_overhead
            + self
                .hardware
                .compute_time(detector_flops + tile_flops, working_set)
    }

    /// The full scaling table for one method over a list of GPU counts, with
    /// efficiencies computed relative to the first *feasible* entry.
    pub fn table(&self, method: Method, gpu_counts: &[usize]) -> Vec<Option<ScalingPoint>> {
        let mut rows: Vec<Option<ScalingPoint>> = gpu_counts
            .iter()
            .map(|&g| self.point(method, g, true))
            .collect();
        let baseline = rows
            .iter()
            .flatten()
            .next()
            .map(|p| (p.gpus, p.runtime_minutes));
        if let Some(base) = baseline {
            for row in rows.iter_mut().flatten() {
                row.efficiency_percent =
                    strong_scaling_efficiency(base, (row.gpus, row.runtime_minutes));
            }
        }
        rows
    }

    /// The GPU counts used in the paper's tables for this dataset.
    pub fn paper_gpu_counts(&self) -> Vec<usize> {
        if self.spec.probe_locations >= 10000 {
            vec![6, 54, 198, 462, 924, 4158]
        } else {
            vec![6, 24, 54, 126, 198, 462]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated_large() -> ScalingScenario {
        let mut s = ScalingScenario::new(DatasetSpec::lead_titanate_large());
        s.calibrate_to(6, 5543.0);
        s
    }

    fn calibrated_small() -> ScalingScenario {
        let mut s = ScalingScenario::new(DatasetSpec::lead_titanate_small());
        s.calibrate_to(6, 360.0);
        s
    }

    #[test]
    fn calibration_anchors_single_node_runtime() {
        let s = calibrated_large();
        let p = s.point(Method::GradientDecomposition, 6, true).unwrap();
        assert!(
            (p.runtime_minutes - 5543.0).abs() < 1.0,
            "calibrated 6-GPU runtime should match the paper, got {}",
            p.runtime_minutes
        );
        assert_eq!(p.nodes, 1);
    }

    #[test]
    fn gd_runtime_decreases_monotonically_with_gpus() {
        let s = calibrated_large();
        let table = s.table(Method::GradientDecomposition, &s.paper_gpu_counts());
        let runtimes: Vec<f64> = table.iter().flatten().map(|p| p.runtime_minutes).collect();
        assert_eq!(runtimes.len(), 6);
        for pair in runtimes.windows(2) {
            assert!(
                pair[1] < pair[0],
                "runtime must fall with more GPUs: {runtimes:?}"
            );
        }
    }

    #[test]
    fn gd_scaling_is_super_linear_at_scale() {
        let s = calibrated_large();
        let table = s.table(Method::GradientDecomposition, &s.paper_gpu_counts());
        for point in table.iter().flatten().skip(1) {
            assert!(
                point.efficiency_percent > 100.0,
                "paper reports super-linear efficiency at {} GPUs, model gives {:.0}%",
                point.gpus,
                point.efficiency_percent
            );
        }
        // And the headline: thousands of times faster at 4158 GPUs.
        let last = table.last().unwrap().unwrap();
        let speedup = 5543.0 / last.runtime_minutes;
        assert!(
            speedup > 500.0,
            "expected a speedup in the thousands at 4158 GPUs, got {speedup:.0}x"
        );
    }

    #[test]
    fn hve_infeasible_beyond_paper_limits() {
        let s = calibrated_large();
        assert!(s.point(Method::HaloVoxelExchange, 462, true).is_some());
        assert!(s.point(Method::HaloVoxelExchange, 924, true).is_none());
        let small = calibrated_small();
        assert!(small.point(Method::HaloVoxelExchange, 54, true).is_some());
        assert!(small.point(Method::HaloVoxelExchange, 126, true).is_none());
    }

    #[test]
    fn gd_beats_hve_runtime_and_memory() {
        let s = calibrated_large();
        for gpus in [54, 198, 462] {
            let gd = s.point(Method::GradientDecomposition, gpus, true).unwrap();
            let hve = s.point(Method::HaloVoxelExchange, gpus, true).unwrap();
            assert!(
                hve.runtime_minutes > gd.runtime_minutes,
                "HVE should be slower at {gpus} GPUs ({} vs {})",
                hve.runtime_minutes,
                gd.runtime_minutes
            );
            assert!(hve.memory_gb > gd.memory_gb);
        }
    }

    #[test]
    fn best_case_speed_advantage_is_large() {
        // Paper: GD at 4158 GPUs (2.2 min) vs HVE's best (59.2 min at 198
        // GPUs) is an 86x gap; the model should show a gap of tens of times.
        let s = calibrated_large();
        let gd_best = s
            .table(Method::GradientDecomposition, &s.paper_gpu_counts())
            .iter()
            .flatten()
            .map(|p| p.runtime_minutes)
            .fold(f64::INFINITY, f64::min);
        let hve_best = s
            .table(Method::HaloVoxelExchange, &s.paper_gpu_counts())
            .iter()
            .flatten()
            .map(|p| p.runtime_minutes)
            .fold(f64::INFINITY, f64::min);
        let advantage = hve_best / gd_best;
        assert!(
            advantage > 10.0,
            "GD best ({gd_best:.1} min) should beat HVE best ({hve_best:.1} min) by >10x"
        );
    }

    #[test]
    fn wait_time_decreases_with_gpus() {
        let s = calibrated_large();
        let few = s.point(Method::GradientDecomposition, 24, true).unwrap();
        let many = s.point(Method::GradientDecomposition, 462, true).unwrap();
        assert!(few.breakdown.wait > many.breakdown.wait * 10.0);
    }

    #[test]
    fn appp_reduces_communication_overhead() {
        // Fig. 7b: at 462 GPUs the communication overhead without APPP is an
        // order of magnitude larger than with it.
        let s = calibrated_large();
        let with = s.point(Method::GradientDecomposition, 462, true).unwrap();
        let without = s.point(Method::GradientDecomposition, 462, false).unwrap();
        assert!(
            without.breakdown.communication > 10.0 * with.breakdown.communication,
            "APPP should cut communication by >10x ({} vs {})",
            without.breakdown.communication,
            with.breakdown.communication
        );
        // And the no-APPP overhead grows with scale.
        let without_small = s.point(Method::GradientDecomposition, 24, false).unwrap();
        assert!(without.breakdown.communication > without_small.breakdown.communication);
    }

    #[test]
    fn small_dataset_reaches_minutes_at_462_gpus() {
        // Table II(a): 3.0 minutes at 462 GPUs from 360 at 6 GPUs.
        let s = calibrated_small();
        let p = s.point(Method::GradientDecomposition, 462, true).unwrap();
        assert!(
            p.runtime_minutes < 20.0,
            "small dataset should reconstruct in minutes at 462 GPUs, got {}",
            p.runtime_minutes
        );
    }

    #[test]
    fn paper_gpu_counts_match_tables() {
        assert_eq!(
            ScalingScenario::new(DatasetSpec::lead_titanate_small()).paper_gpu_counts(),
            vec![6, 24, 54, 126, 198, 462]
        );
        assert_eq!(
            ScalingScenario::new(DatasetSpec::lead_titanate_large()).paper_gpu_counts(),
            vec![6, 54, 198, 462, 924, 4158]
        );
    }

    #[test]
    fn efficiency_linear_scaling_is_100() {
        // 4x the GPUs, 4x faster.
        let eff = strong_scaling_efficiency((6, 400.0), (24, 100.0));
        assert!((eff - 100.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_super_linear_exceeds_100() {
        // The paper's Table III: 6 GPUs at 5543 min vs 4158 GPUs at 2.2 min is
        // 364% efficiency.
        let eff = strong_scaling_efficiency((6, 5543.0), (4158, 2.2));
        assert!((eff - 363.6).abs() < 2.0, "got {eff}");
    }

    #[test]
    fn efficiency_sub_linear_below_100() {
        let eff = strong_scaling_efficiency((6, 463.3), (126, 95.3));
        assert!(eff < 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_runtime_panics() {
        let _ = strong_scaling_efficiency((6, 0.0), (12, 1.0));
    }

    #[test]
    fn seconds_to_minutes_conversion() {
        assert_eq!(seconds_to_minutes(120.0), 2.0);
    }
}
