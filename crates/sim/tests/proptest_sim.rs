//! Property-based tests for the physics substrate: scans, probes, the
//! multi-slice model and the likelihood gradient.

use proptest::prelude::*;
use ptycho_array::Array3;
use ptycho_fft::Complex64;
use ptycho_sim::gradient::{probe_gradient, probe_loss};
use ptycho_sim::multislice::MultisliceModel;
use ptycho_sim::physics::{electron_wavelength_pm, ImagingGeometry};
use ptycho_sim::probe::{Probe, ProbeConfig};
use ptycho_sim::scan::{ScanConfig, ScanPattern};

fn test_model(window: usize, slices: usize, defocus: f64) -> MultisliceModel {
    let probe = Probe::new(ProbeConfig {
        window_px: window,
        geometry: ImagingGeometry {
            pixel_size_pm: 50.0,
            defocus_pm: defocus,
            ..ImagingGeometry::paper()
        },
        total_intensity: 1.0,
    });
    MultisliceModel::new(probe, slices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wavelength_is_positive_and_decreasing(energy_kev in 20.0f64..1000.0) {
        let lambda = electron_wavelength_pm(energy_kev * 1e3);
        let lambda_higher = electron_wavelength_pm((energy_kev + 50.0) * 1e3);
        prop_assert!(lambda > 0.0);
        prop_assert!(lambda_higher < lambda);
    }

    #[test]
    fn scan_patterns_have_consistent_geometry(rows in 1usize..8, cols in 1usize..8,
                                              step in 2.0f64..24.0) {
        let config = ScanConfig {
            rows,
            cols,
            step_px: step,
            origin_px: (30.0, 30.0),
            window_px: 16,
            probe_radius_px: 8.0,
        };
        let pattern = ScanPattern::generate(config);
        prop_assert_eq!(pattern.len(), rows * cols);
        // Raster order: indices increase along columns first.
        for (i, loc) in pattern.locations().iter().enumerate() {
            prop_assert_eq!(loc.index, i);
            prop_assert_eq!(loc.grid_pos, (i / cols, i % cols));
            prop_assert_eq!(loc.window.shape(), (16, 16));
        }
        // Overlap ratio is within [0, 1] and decreases with the step size.
        let ratio = config.overlap_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn probe_normalisation_holds_for_any_dose(dose in 0.1f64..50.0, window_exp in 4u32..7) {
        let probe = Probe::new(ProbeConfig {
            window_px: 1 << window_exp,
            geometry: ImagingGeometry {
                pixel_size_pm: 50.0,
                defocus_pm: 10_000.0,
                ..ImagingGeometry::paper()
            },
            total_intensity: dose,
        });
        prop_assert!((probe.total_intensity() - dose).abs() < 1e-9 * dose.max(1.0));
        prop_assert!(probe.radius_px() > 0.0);
    }

    #[test]
    fn forward_model_conserves_energy_for_phase_objects(slices in 1usize..4,
                                                        strength in 0.0f64..0.8) {
        // Pure phase objects and unitary propagation preserve the beam energy.
        let model = test_model(16, slices, 8_000.0);
        let object = Array3::from_fn(slices, 16, 16, |s, r, c| {
            Complex64::cis(strength * ((r * 3 + c * 5 + s) as f64 * 0.21).sin())
        });
        let pass = model.forward(&object);
        // The exit wave itself is never formed; by Parseval its energy is
        // the far field's over the element count.
        let exit_energy: f64 = pass.far_field.as_slice().iter()
            .map(|v| v.norm_sqr()).sum::<f64>() / (16.0 * 16.0);
        let probe_energy = model.probe().total_intensity();
        prop_assert!((exit_energy - probe_energy).abs() < 1e-9 * probe_energy);
    }

    #[test]
    fn loss_is_nonnegative_and_zero_only_at_match(strength in 0.05f64..0.5) {
        let model = test_model(16, 2, 8_000.0);
        let truth = Array3::from_fn(2, 16, 16, |s, r, c| {
            Complex64::cis(strength * ((r + 2 * c + 3 * s) as f64 * 0.17).cos())
        });
        let measured = model.simulate_amplitude(&truth);
        let perfect = probe_loss(&model, &truth, &measured);
        prop_assert!(perfect >= 0.0);
        prop_assert!(perfect < 1e-15);

        let flat = Array3::full(2, 16, 16, Complex64::ONE);
        let mismatched = probe_loss(&model, &flat, &measured);
        prop_assert!(mismatched >= 0.0);
        prop_assert!(mismatched >= perfect);
    }

    #[test]
    fn gradient_descent_direction_reduces_loss(strength in 0.1f64..0.4, seed in 0u64..32) {
        // A single small step along the negative gradient never increases the
        // loss (first-order descent property).
        let model = test_model(16, 2, 8_000.0);
        let truth = Array3::from_fn(2, 16, 16, |s, r, c| {
            Complex64::cis(strength * ((r * 7 + c * 11 + s + seed as usize) as f64 * 0.13).sin())
        });
        let measured = model.simulate_amplitude(&truth);
        let guess = Array3::full(2, 16, 16, Complex64::ONE);
        let result = probe_gradient(&model, &guess, &measured);
        if result.loss > 1e-12 {
            let step = 1e-4 * ptycho_sim::suggested_step(&model);
            let mut updated = guess.clone();
            ptycho_sim::apply_gradient_step(&mut updated, &result.gradient, step);
            let new_loss = probe_loss(&model, &updated, &measured);
            prop_assert!(new_loss <= result.loss * (1.0 + 1e-9),
                "tiny descent step increased the loss: {} -> {}", result.loss, new_loss);
        }
    }
}
