//! The experiment functions behind every table and figure of the paper.
//!
//! | Paper artefact | Function | Binary |
//! |---|---|---|
//! | Table I (dataset sizes) | [`table1`] | `table1` |
//! | Table II (small dataset scaling) | [`scaling_tables`] | `table2` |
//! | Table III (large dataset scaling) | [`scaling_tables`] | `table3` |
//! | Fig. 7a (strong scaling curves) | [`fig7a`] | `fig7a` |
//! | Fig. 7b (runtime breakdown, APPP ablation) | [`fig7b`] | `fig7b` |
//! | Fig. 8 (seam artifacts) | [`fig8`] | `fig8` |
//! | Fig. 9 (convergence vs. pass frequency) | [`fig9`] | `fig9` |
//!
//! The scaling experiments (Tables II/III, Fig. 7) replay the decomposition
//! geometry against the calibrated performance model; the image-quality
//! experiments (Figs. 8 and 9) run the real threaded solvers on a synthetic
//! dataset.

use crate::report::{fmt, fmt_or_na, Table};
use ptycho_array::stats;
use ptycho_cluster::{Cluster, ClusterTopology, TimeBreakdown};
use ptycho_core::config::PassFrequency;
use ptycho_core::scaling::{Method, ScalingPoint, ScalingScenario};
use ptycho_core::stitch::phase_image;
use ptycho_core::{
    seam_artifact_metric, GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext,
    RecoveryPolicy, SolverConfig,
};
use ptycho_sim::dataset::{Dataset, DatasetSpec, SyntheticConfig};

/// The paper's measured single-node (6 GPU) runtimes in minutes, used to
/// calibrate the performance model (Tables II(a) and III(a)).
pub const PAPER_SMALL_6GPU_MINUTES: f64 = 360.0;
/// Calibration anchor for the large dataset.
pub const PAPER_LARGE_6GPU_MINUTES: f64 = 5543.0;

/// Which paper dataset a scaling experiment refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperDataset {
    /// Lead Titanate small (4158 probe locations, Table II).
    Small,
    /// Lead Titanate large (16632 probe locations, Table III).
    Large,
}

impl PaperDataset {
    /// The dataset geometry.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            PaperDataset::Small => DatasetSpec::lead_titanate_small(),
            PaperDataset::Large => DatasetSpec::lead_titanate_large(),
        }
    }

    /// The calibration anchor (6-GPU runtime in minutes from the paper).
    pub fn calibration_minutes(&self) -> f64 {
        match self {
            PaperDataset::Small => PAPER_SMALL_6GPU_MINUTES,
            PaperDataset::Large => PAPER_LARGE_6GPU_MINUTES,
        }
    }

    /// A calibrated scaling scenario for this dataset.
    pub fn scenario(&self) -> ScalingScenario {
        let mut scenario = ScalingScenario::new(self.spec());
        scenario.calibrate_to(6, self.calibration_minutes());
        scenario
    }
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Regenerates Table I: dataset sizes for measurements and reconstructions.
pub fn table1() -> Table {
    let mut table = Table::new("Table I: dataset sizes").headers(&[
        "Sample",
        "Probe locations",
        "Measurements y size",
        "Reconstruction V size",
        "Voxel size (pm^3)",
        "Overlap ratio",
    ]);
    for spec in [
        DatasetSpec::lead_titanate_small(),
        DatasetSpec::lead_titanate_large(),
    ] {
        table.row(vec![
            spec.name.clone(),
            spec.probe_locations.to_string(),
            format!(
                "{}x{}x{}",
                spec.detector_px, spec.detector_px, spec.probe_locations
            ),
            format!(
                "{}x{}x{}",
                spec.reconstruction.1, spec.reconstruction.2, spec.reconstruction.0
            ),
            format!(
                "{}x{}x{}",
                spec.voxel_size_pm.0, spec.voxel_size_pm.1, spec.voxel_size_pm.2
            ),
            format!("{:.0}%", spec.overlap_ratio() * 100.0),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Tables II and III
// ---------------------------------------------------------------------------

/// One method's scaling rows for a dataset (GPU counts from the paper).
#[derive(Clone, Debug)]
pub struct ScalingRows {
    /// The method the rows describe.
    pub method: Method,
    /// One entry per GPU count; `None` marks the paper's "NA" cells.
    pub points: Vec<Option<ScalingPoint>>,
    /// The GPU counts of the columns.
    pub gpu_counts: Vec<usize>,
}

/// Regenerates Table II (small dataset) or Table III (large dataset): the
/// Gradient Decomposition rows and the Halo Voxel Exchange rows.
pub fn scaling_tables(dataset: PaperDataset) -> (ScalingRows, ScalingRows) {
    let scenario = dataset.scenario();
    let gpu_counts = scenario.paper_gpu_counts();
    let gd = ScalingRows {
        method: Method::GradientDecomposition,
        points: scenario.table(Method::GradientDecomposition, &gpu_counts),
        gpu_counts: gpu_counts.clone(),
    };
    let hve = ScalingRows {
        method: Method::HaloVoxelExchange,
        points: scenario.table(Method::HaloVoxelExchange, &gpu_counts),
        gpu_counts,
    };
    (gd, hve)
}

/// Formats one method's scaling rows in the layout of Tables II/III.
pub fn render_scaling_rows(title: &str, rows: &ScalingRows) -> Table {
    let mut table = Table::new(title).headers(&[
        "GPUs",
        "Nodes",
        "Memory/GPU (GB)",
        "Runtime (min)",
        "Efficiency (%)",
    ]);
    for (gpus, point) in rows.gpu_counts.iter().zip(&rows.points) {
        table.row(vec![
            gpus.to_string(),
            point
                .map(|p| p.nodes.to_string())
                .unwrap_or_else(|| "NA".into()),
            fmt_or_na(point.map(|p| p.memory_gb), 2),
            fmt_or_na(point.map(|p| p.runtime_minutes), 1),
            fmt_or_na(point.map(|p| p.efficiency_percent), 0),
        ]);
    }
    table
}

/// Headline comparison derived from Table III: memory-reduction factor,
/// best-runtime ratio, and scalability ratio between the methods.
#[derive(Clone, Copy, Debug)]
pub struct HeadlineClaims {
    /// GD memory reduction from 6 GPUs to its largest configuration.
    pub gd_memory_reduction: f64,
    /// HVE floor memory / GD floor memory.
    pub memory_advantage: f64,
    /// HVE best runtime / GD best runtime.
    pub speed_advantage: f64,
    /// GD max feasible GPUs / HVE max feasible GPUs.
    pub scalability_advantage: f64,
}

/// Computes the headline claims of the abstract from the scaling model.
pub fn headline_claims(dataset: PaperDataset) -> HeadlineClaims {
    let (gd, hve) = scaling_tables(dataset);
    let gd_points: Vec<&ScalingPoint> = gd.points.iter().flatten().collect();
    let hve_points: Vec<&ScalingPoint> = hve.points.iter().flatten().collect();
    let gd_first = gd_points.first().expect("GD always feasible");
    let gd_last = gd_points.last().expect("GD always feasible");
    let gd_best_runtime = gd_points
        .iter()
        .map(|p| p.runtime_minutes)
        .fold(f64::INFINITY, f64::min);
    let hve_best_runtime = hve_points
        .iter()
        .map(|p| p.runtime_minutes)
        .fold(f64::INFINITY, f64::min);
    let hve_floor_memory = hve_points
        .iter()
        .map(|p| p.memory_gb)
        .fold(f64::INFINITY, f64::min);
    let hve_max_gpus = hve_points.iter().map(|p| p.gpus).max().unwrap_or(1);
    HeadlineClaims {
        gd_memory_reduction: gd_first.memory_gb / gd_last.memory_gb,
        memory_advantage: hve_floor_memory / gd_last.memory_gb,
        speed_advantage: hve_best_runtime / gd_best_runtime,
        scalability_advantage: gd_last.gpus as f64 / hve_max_gpus as f64,
    }
}

// ---------------------------------------------------------------------------
// Fig. 7a and 7b
// ---------------------------------------------------------------------------

/// Strong-scaling series for Fig. 7a: `(gpus, runtime_minutes, ideal_minutes)`.
pub fn fig7a(dataset: PaperDataset) -> Vec<(usize, f64, f64)> {
    let scenario = dataset.scenario();
    let gpu_counts = scenario.paper_gpu_counts();
    let rows = scenario.table(Method::GradientDecomposition, &gpu_counts);
    let base = rows
        .iter()
        .flatten()
        .next()
        .map(|p| (p.gpus, p.runtime_minutes))
        .expect("at least one feasible point");
    rows.iter()
        .flatten()
        .map(|p| {
            let ideal = base.1 * base.0 as f64 / p.gpus as f64;
            (p.gpus, p.runtime_minutes, ideal)
        })
        .collect()
}

/// Runtime breakdown for Fig. 7b: `(gpus, with_appp, without_appp)` for the
/// large dataset, 24–462 GPUs.
pub fn fig7b() -> Vec<(usize, TimeBreakdown, TimeBreakdown)> {
    let scenario = PaperDataset::Large.scenario();
    [24usize, 54, 126, 198, 462]
        .iter()
        .map(|&gpus| {
            let with = scenario
                .point(Method::GradientDecomposition, gpus, true)
                .expect("GD feasible");
            let without = scenario
                .point(Method::GradientDecomposition, gpus, false)
                .expect("GD feasible");
            (gpus, with.breakdown, without.breakdown)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 8: seam artifacts (real execution)
// ---------------------------------------------------------------------------

/// The result of the seam-artifact experiment.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Result {
    /// Seam metric (border-gradient / interior-gradient ratio) for GD.
    pub gd_seam: f64,
    /// Seam metric for the Halo Voxel Exchange baseline.
    pub hve_seam: f64,
    /// Reconstruction error (RMSE of the phase image vs. ground truth) for GD.
    pub gd_rmse: f64,
    /// Reconstruction error for HVE.
    pub hve_rmse: f64,
}

/// The synthetic acquisition used by the image-quality experiments: a dense
/// scan (high probe overlap, so probe circles overlap beyond their direct
/// neighbours) with Poisson noise — the regime of Sec. IV in which the voxel
/// copy-paste of the baseline produces visible seams.
pub fn quality_dataset(seed: u64) -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 160,
        slices: 2,
        scan_grid: (12, 12),
        window_px: 64,
        dose: Some(100.0),
        defocus_pm: 45_000.0,
        seed,
    })
}

/// Runs both methods on the same dataset and tile grid and measures seam
/// artifacts at the tile borders (Fig. 8) plus reconstruction error.
pub fn fig8(iterations: usize) -> Fig8Result {
    let cluster = &Cluster::new(ClusterTopology::summit());
    let dataset = quality_dataset(17);
    let grid_dims = (3, 3);

    // The Gradient Decomposition halo covers the probe window (the paper uses
    // a halo sized to the probe-location circle), so every tile receives the
    // complete accumulated gradient for its voxels.
    let gd_config = SolverConfig {
        iterations,
        halo_px: 32,
        step_relaxation: 0.1,
        ..SolverConfig::default()
    };
    let gd = GradientDecompositionSolver::new(&dataset, gd_config, grid_dims)
        .run_job(cluster, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");

    // The baseline uses the paper's two extra probe-location rows; in the
    // high-overlap regime that is not enough for tiles to agree at their
    // borders, which is exactly what produces the seams of Fig. 8(a).
    let hve_config = SolverConfig {
        iterations,
        hve_extra_probe_rows: 2,
        hve_exchange_period: 5,
        step_relaxation: 0.1,
        ..SolverConfig::default()
    };
    let hve = HaloVoxelExchangeSolver::new(&dataset, hve_config, grid_dims)
        .expect("3x3 grid is feasible for the baseline on this dataset")
        .run_job(cluster, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");

    let truth_phase = dataset.specimen().phase_slice(0);
    let gd_phase = phase_image(&gd.volume, 0);
    let hve_phase = phase_image(&hve.volume, 0);

    // Seams are discontinuities the specimen does not have, so measure the
    // border-gradient excess on the *error* image (reconstruction − truth):
    // a seamless reconstruction has a smooth error field across tile borders.
    let gd_error = gd_phase.zip_map(&truth_phase, |a, b| a - b);
    let hve_error = hve_phase.zip_map(&truth_phase, |a, b| a - b);

    Fig8Result {
        gd_seam: seam_artifact_metric(&gd_error, &gd.grid, 1),
        hve_seam: seam_artifact_metric(&hve_error, &hve.grid, 1),
        gd_rmse: stats::rmse(&gd_phase, &truth_phase),
        hve_rmse: stats::rmse(&hve_phase, &truth_phase),
    }
}

// ---------------------------------------------------------------------------
// Fig. 9: convergence vs. communication frequency (real execution)
// ---------------------------------------------------------------------------

/// One convergence curve: a label and the per-iteration cost values.
#[derive(Clone, Debug)]
pub struct ConvergenceCurve {
    /// Human-readable label matching the paper's legend.
    pub label: String,
    /// Cost `F(V)` per iteration.
    pub costs: Vec<f64>,
}

/// Runs the Gradient Decomposition solver with the three communication
/// frequencies of Fig. 9 (once per probe location, twice per iteration, once
/// per iteration) and returns the three convergence curves.
pub fn fig9(iterations: usize) -> Vec<ConvergenceCurve> {
    let cluster = &Cluster::new(ClusterTopology::summit());
    let dataset = quality_dataset(23);
    let variants = [
        ("T = every probe location", PassFrequency::EveryProbe),
        ("T = twice per iteration", PassFrequency::PerIteration(2)),
        ("T = once per iteration", PassFrequency::PerIteration(1)),
    ];
    variants
        .iter()
        .map(|(label, frequency)| {
            let config = SolverConfig {
                iterations,
                halo_px: 32,
                step_relaxation: 0.1,
                pass_frequency: *frequency,
                ..SolverConfig::default()
            };
            let result = GradientDecompositionSolver::new(&dataset, config, (2, 3))
                .run_job(cluster, RecoveryPolicy::FailFast, &JobContext::default())
                .expect("fault-free run completes");
            ConvergenceCurve {
                label: label.to_string(),
                costs: result.cost_history.costs().to_vec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rendering helpers shared by the binaries
// ---------------------------------------------------------------------------

/// Renders the Fig. 7b breakdown as a table.
pub fn render_fig7b(rows: &[(usize, TimeBreakdown, TimeBreakdown)]) -> Table {
    let mut table =
        Table::new("Fig. 7b: runtime breakdown per 100 iterations, large dataset (minutes)")
            .headers(&[
                "GPUs",
                "compute",
                "wait",
                "comm (APPP)",
                "comm (w/o APPP)",
                "total (APPP)",
                "total (w/o APPP)",
            ]);
    for (gpus, with, without) in rows {
        table.row(vec![
            gpus.to_string(),
            fmt(with.compute / 60.0, 2),
            fmt(with.wait / 60.0, 2),
            fmt(with.communication / 60.0, 3),
            fmt(without.communication / 60.0, 3),
            fmt(with.total() / 60.0, 2),
            fmt(without.total() / 60.0, 2),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_both_datasets() {
        let t = table1();
        assert_eq!(t.len(), 2);
        let text = t.render();
        assert!(text.contains("4158"));
        assert!(text.contains("16632"));
        assert!(text.contains("1024x1024"));
        // The paper's 86-87% probe overlap range, as rendered in Table I.
        assert!(text.contains("87%"), "small dataset overlap: {text}");
        assert!(text.contains("86%"), "large dataset overlap: {text}");
    }

    #[test]
    fn scaling_tables_have_na_cells_for_hve() {
        let (gd, hve) = scaling_tables(PaperDataset::Small);
        assert!(gd.points.iter().all(Option::is_some));
        assert!(
            hve.points.iter().any(Option::is_none),
            "HVE must hit NA cells"
        );
        let rendered = render_scaling_rows("test", &hve);
        assert!(rendered.render().contains("NA"));
    }

    #[test]
    fn headline_claims_have_paper_shape() {
        let claims = headline_claims(PaperDataset::Large);
        assert!(claims.gd_memory_reduction > 25.0);
        assert!(claims.memory_advantage > 1.5);
        assert!(claims.speed_advantage > 10.0);
        assert!(claims.scalability_advantage >= 9.0);
    }

    #[test]
    fn fig7a_ideal_line_is_linear() {
        let series = fig7a(PaperDataset::Large);
        assert_eq!(series.len(), 6);
        let (g0, _, i0) = series[0];
        let (g1, _, i1) = series[1];
        assert!((i0 * g0 as f64 - i1 * g1 as f64).abs() < 1e-6);
    }

    #[test]
    fn fig7b_appp_always_cheaper() {
        for (_, with, without) in fig7b() {
            assert!(with.communication <= without.communication);
        }
    }
}
