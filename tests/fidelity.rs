//! Fidelity oracles: how close a Gradient Decomposition solve gets to the
//! ground truth, and how far it drives the cost down.
//!
//! The hash goldens (`golden_solver.rs`, `golden_spectra.rs`) say whether a
//! single bit moved; they cannot say whether a change that moves bits on
//! purpose still reconstructs as well. These tests can. Each runs a GD solve
//! and measures two numbers:
//!
//! * the relative error `‖T − e^{iφ}·V‖ / ‖T‖` of the reconstruction `V`
//!   against the specimen's transmission `T`, over the illuminated voxels,
//!   after removing the global phase in closed form, `φ = arg Σ conj(V)·T`
//!   (the phase that minimises the error);
//! * the final-to-first cost ratio of the solve.
//!
//! Both are asserted against the values recorded at commit c377a6d, where
//! every per-probe evaluation ran in complex `f64`, with the one-sided bound
//! [`SLACK`]: a change may make a reconstruction better, never worse by more
//! than that. The recorded values and the bound are not edited by a change
//! of working precision; they are what judges it.

mod common;

use common::lockstep;
use ptycho_core::{
    GradientDecompositionSolver, JobContext, ReconstructionResult, RecoveryPolicy, SolverConfig,
};
use ptycho_fft::Complex64;
use ptycho_sim::dataset::{Dataset, SyntheticConfig};

/// How much worse than the recorded value a measurement may be, relative:
/// `measured ≤ recorded · (1 + SLACK)`.
const SLACK: f64 = 1e-3;

/// A voxel is illuminated when the summed probe intensity over the scan
/// reaches this fraction of its maximum.
const ILLUMINATED: f64 = 0.1;

/// `(relative error over the illuminated voxels, final / first cost)`.
fn fidelity(dataset: &Dataset, result: &ReconstructionResult) -> (f64, f64) {
    let truth = dataset.specimen().transmission();
    let volume = &result.volume;
    assert_eq!(volume.shape(), truth.shape());
    let (slices, rows, cols) = truth.shape();

    // Summed probe intensity over every scan window, clipped to the object.
    let probe = dataset.model().probe().field();
    let mut dose = vec![0.0f64; rows * cols];
    for loc in dataset.scan().locations() {
        let w = loc.window;
        for (r, probe_row) in (w.row0..w.row1).zip(probe.as_slice().chunks_exact(w.cols())) {
            for (c, p) in (w.col0..w.col1).zip(probe_row) {
                if (0..rows as i64).contains(&r) && (0..cols as i64).contains(&c) {
                    dose[r as usize * cols + c as usize] += p.norm_sqr();
                }
            }
        }
    }
    let peak = dose.iter().cloned().fold(0.0, f64::max);
    let lit: Vec<usize> = (0..rows * cols)
        .filter(|&i| dose[i] >= ILLUMINATED * peak)
        .collect();
    assert!(!lit.is_empty(), "no illuminated voxel");
    let voxels = || {
        (0..slices).flat_map(|s| {
            let (t, v) = (truth.slice_data(s), volume.slice_data(s));
            lit.iter().map(move |&i| (t[i], v[i]))
        })
    };

    let overlap: Complex64 = voxels().map(|(t, v)| v.conj() * t).sum();
    let phase = Complex64::cis(overlap.arg());
    let (residual, norm) = voxels().fold((0.0, 0.0), |(residual, norm), (t, v)| {
        (residual + (t - v * phase).norm_sqr(), norm + t.norm_sqr())
    });
    let history = &result.cost_history;
    (
        (residual / norm).sqrt(),
        history.final_cost() / history.initial_cost(),
    )
}

fn solve(dataset: &Dataset, config: SolverConfig, grid: (usize, usize)) -> (f64, f64) {
    let result = GradientDecompositionSolver::new(dataset, config, grid)
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    fidelity(dataset, &result)
}

/// Asserts `measured` is finite and at most `recorded · (1 + SLACK)`.
fn assert_within(name: &str, measured: f64, recorded: f64) {
    assert!(
        measured.is_finite() && measured <= recorded * (1.0 + SLACK),
        "{name}: measured {measured:.9e}, recorded {recorded:.9e} (bound +{SLACK})"
    );
}

#[test]
fn golden_solver_problem_on_a_3x3_grid_keeps_its_fidelity() {
    // The `golden_solver.rs` dataset: a 96 px, 2-slice object under a 5×5
    // scan of 32-px windows.
    let dataset = Dataset::synthesize(SyntheticConfig {
        object_px: 96,
        slices: 2,
        scan_grid: (5, 5),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 16,
    });
    let config = SolverConfig {
        iterations: 8,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let (error, cost_ratio) = solve(&dataset, config, (3, 3));
    assert_within("3x3 relative error", error, RECORDED_3X3.0);
    assert_within("3x3 cost ratio", cost_ratio, RECORDED_3X3.1);
}

#[test]
fn window_128_by_8_slices_keeps_its_fidelity() {
    // The gradient shape of `gd-compute-1r` — a 128-px window through 8
    // slices, its 90 nm defocus and step relaxation — on one rank, under a
    // short 2×2 scan.
    let dataset = Dataset::synthesize(SyntheticConfig {
        object_px: 192,
        slices: 8,
        scan_grid: (2, 2),
        window_px: 128,
        dose: None,
        defocus_pm: 90_000.0,
        seed: 7,
    });
    let config = SolverConfig {
        iterations: 4,
        step_relaxation: 0.05,
        ..SolverConfig::default()
    };
    let (error, cost_ratio) = solve(&dataset, config, (1, 1));
    assert_within("128x8 relative error", error, RECORDED_128X8.0);
    assert_within("128x8 cost ratio", cost_ratio, RECORDED_128X8.1);
}

/// `(relative error, cost ratio)` recorded at commit c377a6d.
const RECORDED_3X3: (f64, f64) = (9.222_440_376_271_82e-3, 8.068_146_170_934_11e-2);
/// `(relative error, cost ratio)` recorded at commit c377a6d.
const RECORDED_128X8: (f64, f64) = (1.035_831_135_441_238e-2, 2.113_578_971_569_513e-1);
