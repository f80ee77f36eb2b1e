//! The per-probe-location likelihood cost and its image gradient.
//!
//! Eqn. (2) of the paper writes the total image gradient as the sum of the
//! individual gradients `∂f_i/∂V`, each of which is "significant only within
//! the probe location circle i". This module computes one such individual
//! gradient by the adjoint (back-propagation) of the multi-slice model: it is
//! the quantity the Gradient Decomposition method tessellates into tiles and
//! accumulates in overlap regions.
//!
//! The object variable is the per-slice complex transmission function; the
//! gradient returned here is the Wirtinger derivative `∂f_i/∂conj(t_s)`, so a
//! gradient-descent update is `t_s ← t_s − α · grad_s`.

use crate::multislice::{ForwardPass, MultisliceModel, SimWorkspace};
use ptycho_array::{Array2, Array3};
use ptycho_fft::{CArray3, Complex64};

/// The result of evaluating one probe location: the scalar data-fidelity cost
/// and the gradient with respect to the object patch.
#[derive(Clone, Debug)]
pub struct GradientResult {
    /// The squared-error cost `f_i(V) = Σ_k (|y_k| − |G_k|)²`.
    pub loss: f64,
    /// Gradient with respect to the object transmission patch, shape
    /// `(slices, window, window)`.
    pub gradient: CArray3,
}

/// Computes the data-fidelity cost for one probe location without the gradient.
pub fn probe_loss(
    model: &MultisliceModel,
    object_patch: &CArray3,
    measured_amplitude: &Array2<f64>,
) -> f64 {
    let pass = model.forward(object_patch);
    loss_from_pass(&pass, measured_amplitude)
}

fn loss_from_pass(pass: &ForwardPass, measured_amplitude: &Array2<f64>) -> f64 {
    assert_eq!(
        pass.far_field.shape(),
        measured_amplitude.shape(),
        "measurement shape {:?} does not match simulation {:?}",
        measured_amplitude.shape(),
        pass.far_field.shape()
    );
    pass.far_field
        .as_slice()
        .iter()
        .zip(measured_amplitude.as_slice())
        .map(|(d, m)| {
            let s = d.abs();
            (s - m) * (s - m)
        })
        .sum()
}

/// Computes the cost *and* the gradient `∂f_i/∂conj(t)` for one probe location
/// by back-propagating through the multi-slice model.
///
/// By-value wrapper over [`probe_gradient_into`] — it allocates a fresh
/// [`SimWorkspace`] and gradient volume per call. Hot loops should hold both
/// and call `probe_gradient_into` directly.
pub fn probe_gradient(
    model: &MultisliceModel,
    object_patch: &CArray3,
    measured_amplitude: &Array2<f64>,
) -> GradientResult {
    let n = model.window_px();
    let mut ws = SimWorkspace::for_model(model);
    let mut gradient = Array3::full(model.slices(), n, n, Complex64::ZERO);
    let loss = probe_gradient_into(
        model,
        object_patch,
        measured_amplitude,
        &mut ws,
        &mut gradient,
    );
    GradientResult { loss, gradient }
}

/// The allocation-free core of [`probe_gradient`]: evaluates the forward
/// model and its adjoint entirely inside `ws`'s reusable buffers and writes
/// the gradient into the caller-owned `gradient` volume (shape
/// `(slices, window, window)`). Returns the probe loss.
///
/// # Panics
/// Panics if any shape does not match the model.
pub fn probe_gradient_into(
    model: &MultisliceModel,
    object_patch: &CArray3,
    measured_amplitude: &Array2<f64>,
    ws: &mut SimWorkspace,
    gradient: &mut CArray3,
) -> f64 {
    let n = model.window_px();
    assert_eq!(
        gradient.shape(),
        (model.slices(), n, n),
        "gradient shape {:?} does not match model (slices={}, window={})",
        gradient.shape(),
        model.slices(),
        n
    );
    model.forward_with(object_patch, ws);

    let SimWorkspace {
        incident,
        far_field,
        back,
    } = ws;
    assert_eq!(
        far_field.shape(),
        measured_amplitude.shape(),
        "measurement shape {:?} does not match simulation {:?}",
        measured_amplitude.shape(),
        far_field.shape()
    );

    // Loss and ∂L/∂conj(D) for the amplitude-matching loss,
    // (|D| − y) · D / |D|, written straight into the back-propagation buffer
    // already multiplied by conj(H): the far field is D = H ⊙ FFT(a) of the
    // last slice's transmitted wave a, so the adjoint begins with that
    // multiply (and the `H · F⁻¹ F` pair the forward pass dropped has no
    // adjoint to run either).
    let mut loss = 0.0;
    for (((b, d), y), h) in back
        .as_mut_slice()
        .iter_mut()
        .zip(far_field.as_slice())
        .zip(measured_amplitude.as_slice())
        .zip(model.plan().transfer().as_slice())
    {
        let a = d.abs();
        loss += (a - y) * (a - y);
        *b = if a == 0.0 {
            Complex64::ZERO
        } else {
            d.scale((a - y) / a) * h.conj()
        };
    }

    // Back through the last slice's FFT: the adjoint of the unnormalised
    // forward transform is the unnormalised inverse transform, F^H = N · F⁻¹.
    model.plan().fft().inverse_unnormalized_mut(back);

    // Back through the slices in reverse order. `back` holds ∂L/∂conj(a_s)
    // where a_s = t_s ⊙ psi_s.
    for s in (0..model.slices()).rev() {
        let psi_s = incident[s].as_slice();
        let t_s = object_patch.slice_data(s);
        // ∂L/∂conj(t_s) = ∂L/∂conj(a_s) ⊙ conj(psi_s), and in the same sweep
        // ∂L/∂conj(psi_s) = ∂L/∂conj(a_s) ⊙ conj(t_s) — which nothing reads
        // at the entry slice.
        for (((g, d_a), p), t) in gradient
            .slice_data_mut(s)
            .iter_mut()
            .zip(back.as_mut_slice())
            .zip(psi_s)
            .zip(t_s)
        {
            *g = *d_a * p.conj();
            if s > 0 {
                *d_a *= t.conj();
            }
        }
        if s > 0 {
            // Pull it through the propagator between slices s − 1 and s.
            model.plan().propagate_adjoint_in_place(back);
        }
    }
    loss
}

/// A well-scaled gradient-descent step size for the given model, following the
/// ePIE normalisation: the amplitude loss has curvature of order
/// `window² · max|p|²` with respect to the transmission, so its reciprocal is a
/// stable step. Multiply by a relaxation factor in `(0, 1]` for extra safety.
pub fn suggested_step(model: &MultisliceModel) -> f64 {
    let n = model.window_px();
    let max_probe_intensity = model
        .probe()
        .field()
        .as_slice()
        .iter()
        .map(|v| v.norm_sqr())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    1.0 / ((n * n) as f64 * max_probe_intensity)
}

/// Scales a gradient by a step size and subtracts it from the object patch:
/// the `V_k ← V_k − α·∂f_i/∂V_k` update of Algorithm 1 (steps 8 and 15).
pub fn apply_gradient_step(object_patch: &mut CArray3, gradient: &CArray3, step: f64) {
    assert_eq!(object_patch.shape(), gradient.shape(), "shape mismatch");
    for (t, g) in object_patch.iter_mut().zip(gradient.iter()) {
        *t -= g.scale(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physics::ImagingGeometry;
    use crate::probe::{Probe, ProbeConfig};

    fn small_model(slices: usize) -> MultisliceModel {
        let probe = Probe::new(ProbeConfig {
            window_px: 16,
            geometry: ImagingGeometry {
                pixel_size_pm: 50.0,
                defocus_pm: 5_000.0,
                ..ImagingGeometry::paper()
            },
            total_intensity: 1.0,
        });
        MultisliceModel::new(probe, slices)
    }

    fn phase_object(slices: usize, n: usize, strength: f64) -> CArray3 {
        Array3::from_fn(slices, n, n, |s, r, c| {
            Complex64::cis(strength * ((r + 2 * c + s) as f64 * 0.37).sin())
        })
    }

    #[test]
    fn loss_is_zero_for_perfect_match() {
        let model = small_model(2);
        let object = phase_object(2, 16, 0.2);
        let measured = model.simulate_amplitude(&object);
        let loss = probe_loss(&model, &object, &measured);
        assert!(loss < 1e-18, "got {loss}");
    }

    #[test]
    fn loss_positive_for_mismatch() {
        let model = small_model(2);
        let object = phase_object(2, 16, 0.2);
        let measured = model.simulate_amplitude(&object);
        let wrong = phase_object(2, 16, 0.5);
        assert!(probe_loss(&model, &wrong, &measured) > 1e-8);
    }

    #[test]
    fn gradient_is_zero_at_the_optimum() {
        let model = small_model(2);
        let object = phase_object(2, 16, 0.2);
        let measured = model.simulate_amplitude(&object);
        let result = probe_gradient(&model, &object, &measured);
        let max_grad = result
            .gradient
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_grad < 1e-9,
            "gradient at optimum should vanish, got {max_grad}"
        );
    }

    /// Checks the gradient at a handful of voxels against forward
    /// differences of the loss, in the real and the imaginary direction.
    fn assert_gradient_matches_finite_differences(
        model: &MultisliceModel,
        voxels: &[(usize, usize, usize)],
    ) {
        let slices = model.slices();
        let truth = phase_object(slices, 16, 0.3);
        let measured = model.simulate_amplitude(&truth);
        let guess = phase_object(slices, 16, 0.1);
        let result = probe_gradient(model, &guess, &measured);

        let eps = 1e-6;
        for &(s, r, c) in voxels {
            let g = result.gradient[(s, r, c)];

            let mut perturbed = guess.clone();
            perturbed[(s, r, c)] += Complex64::new(eps, 0.0);
            let d_re = (probe_loss(model, &perturbed, &measured) - result.loss) / eps;

            let mut perturbed = guess.clone();
            perturbed[(s, r, c)] += Complex64::new(0.0, eps);
            let d_im = (probe_loss(model, &perturbed, &measured) - result.loss) / eps;

            // dL = 2·Re(g·conj(dt)): real perturbation → 2·Re(g), imaginary → 2·Im(g).
            assert!(
                (d_re - 2.0 * g.re).abs() < 1e-3 * (1.0 + d_re.abs()),
                "re mismatch at ({s},{r},{c}): fd={d_re}, grad={}",
                2.0 * g.re
            );
            assert!(
                (d_im - 2.0 * g.im).abs() < 1e-3 * (1.0 + d_im.abs()),
                "im mismatch at ({s},{r},{c}): fd={d_im}, grad={}",
                2.0 * g.im
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        assert_gradient_matches_finite_differences(
            &small_model(2),
            &[(0, 8, 8), (1, 4, 11), (0, 12, 5)],
        );
    }

    #[test]
    fn single_slice_gradient_matches_finite_differences() {
        // One slice is both the entry slice and the last: its only transform
        // forms the far field directly.
        let voxels = [(0, 8, 8), (0, 4, 11), (0, 12, 5)];
        assert_gradient_matches_finite_differences(&small_model(1), &voxels);
    }

    #[test]
    fn adjoint_passes_the_dot_product_test() {
        // ⟨J v, r⟩ = ⟨v, Jᴴ r⟩ with J the derivative of the far field with
        // respect to the object and ⟨a, b⟩ = Σ conj(a)·b. The far field is
        // linear in every slice separately, so J v is exact: the sum over s
        // of the far field with slice s replaced by v_s. Jᴴ r is what
        // `probe_gradient` returns for the residual r, and any r = c ⊙ D with
        // real c is reachable by choosing the "measurement" |D|·(1 − c).
        for slices in [1usize, 2, 5] {
            let model = small_model(slices);
            let object = phase_object(slices, 16, 0.25);
            let v = Array3::from_fn(slices, 16, 16, |s, r, c| {
                Complex64::new(
                    ((s * 7 + r * 3 + c) as f64 * 0.41).sin(),
                    ((s + r + c * 5) as f64 * 0.23).cos(),
                )
            });
            let far_field = model.forward(&object).far_field;
            let weights = Array2::from_fn(16, 16, |r, c| ((r * 5 + c * 11) as f64 * 0.19).sin());
            let measured = Array2::from_fn(16, 16, |r, c| {
                far_field[(r, c)].abs() * (1.0 - weights[(r, c)])
            });
            let jh_r = probe_gradient(&model, &object, &measured).gradient;

            let mut j_v = Array2::full(16, 16, Complex64::ZERO);
            for s in 0..slices {
                let mut replaced = object.clone();
                replaced.slice_data_mut(s).copy_from_slice(v.slice_data(s));
                let term = model.forward(&replaced).far_field;
                j_v.zip_apply(&term, |sum, t| *sum += *t);
            }

            let mut lhs = Complex64::ZERO;
            for ((jv, d), w) in j_v
                .as_slice()
                .iter()
                .zip(far_field.as_slice())
                .zip(weights.as_slice())
            {
                lhs += d.scale(*w).conj() * *jv;
            }
            let mut rhs = Complex64::ZERO;
            for (g, v) in jh_r.iter().zip(v.iter()) {
                rhs += g.conj() * *v;
            }
            assert!(
                (lhs - rhs).abs() < 1e-11 * lhs.abs().max(1.0),
                "{slices} slices: <Jv, r> = {lhs:?} but <v, J^H r> = {rhs:?}"
            );
        }
    }

    #[test]
    fn gradient_into_matches_by_value_bit_exactly() {
        let model = small_model(2);
        let truth = phase_object(2, 16, 0.3);
        let measured = model.simulate_amplitude(&truth);
        let guess = phase_object(2, 16, 0.1);

        let by_value = probe_gradient(&model, &guess, &measured);

        let mut ws = SimWorkspace::for_model(&model);
        let mut gradient = Array3::full(2, 16, 16, Complex64::ONE);
        // Run twice through the same buffers: reuse must not change results.
        let _ = probe_gradient_into(&model, &truth, &measured, &mut ws, &mut gradient);
        let loss = probe_gradient_into(&model, &guess, &measured, &mut ws, &mut gradient);

        assert_eq!(loss.to_bits(), by_value.loss.to_bits());
        for (a, b) in by_value.gradient.iter().zip(gradient.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let model = small_model(3);
        let truth = phase_object(3, 16, 0.3);
        let measured = model.simulate_amplitude(&truth);
        let mut guess = Array3::full(3, 16, 16, Complex64::ONE);

        let before = probe_loss(&model, &guess, &measured);
        let step = 0.5 * suggested_step(&model);
        for _ in 0..10 {
            let result = probe_gradient(&model, &guess, &measured);
            apply_gradient_step(&mut guess, &result.gradient, step);
        }
        let after = probe_loss(&model, &guess, &measured);
        assert!(
            after < before * 0.9,
            "descent should reduce the loss: before={before}, after={after}"
        );
    }

    #[test]
    fn gradient_concentrated_under_probe() {
        // The paper's key locality property: the individual gradient is
        // significant only inside the probe-location circle.
        let model = small_model(1);
        let truth = phase_object(1, 16, 0.4);
        let measured = model.simulate_amplitude(&truth);
        let guess = Array3::full(1, 16, 16, Complex64::ONE);
        let result = probe_gradient(&model, &guess, &measured);

        let probe_intensity = model.probe().field().map(|v| v.norm_sqr());
        // Split pixels into "illuminated" (top 50% of probe intensity) and
        // "dark" (bottom 10%), compare mean gradient magnitudes.
        let mut illuminated = Vec::new();
        let mut dark = Vec::new();
        let mut intensities: Vec<f64> = probe_intensity.as_slice().to_vec();
        intensities.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let hi = intensities[(intensities.len() as f64 * 0.5) as usize];
        let lo = intensities[(intensities.len() as f64 * 0.1) as usize];
        for (r, c, p) in probe_intensity.indexed_iter() {
            let g = result.gradient[(0, r, c)].abs();
            if *p >= hi {
                illuminated.push(g);
            } else if *p <= lo {
                dark.push(g);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&illuminated) > 5.0 * mean(&dark),
            "gradient should be concentrated under the probe: bright={}, dark={}",
            mean(&illuminated),
            mean(&dark)
        );
    }

    #[test]
    fn gradient_is_bit_identical_at_every_simd_tier() {
        use ptycho_fft::SimdLevel;
        // The whole chain — every transform and its adjoint — against the
        // scalar tier: the dispatch tier must not reach a single bit of the
        // loss or the gradient.
        for slices in [1usize, 3] {
            let scalar = small_model(slices).with_simd_level(SimdLevel::Scalar);
            let truth = phase_object(slices, 16, 0.3);
            let measured = scalar.simulate_amplitude(&truth);
            let guess = phase_object(slices, 16, 0.1);
            let mut ws = SimWorkspace::for_model(&scalar);
            let mut reference = Array3::full(slices, 16, 16, Complex64::ZERO);
            let reference_loss =
                probe_gradient_into(&scalar, &guess, &measured, &mut ws, &mut reference);
            for level in SimdLevel::available_levels() {
                let pinned = small_model(slices).with_simd_level(level);
                assert_eq!(pinned.plan().fft().simd_level(), level);
                let mut gradient = Array3::full(slices, 16, 16, Complex64::ONE);
                let loss = probe_gradient_into(&pinned, &guess, &measured, &mut ws, &mut gradient);
                assert_eq!(
                    loss.to_bits(),
                    reference_loss.to_bits(),
                    "loss, {slices} slices at {level:?}"
                );
                for (a, b) in reference.iter().zip(gradient.iter()) {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "gradient, {slices} slices at {level:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match simulation")]
    fn mismatched_measurement_shape_panics() {
        let model = small_model(1);
        let object = phase_object(1, 16, 0.1);
        let bad = Array2::<f64>::zeros(8, 8);
        let _ = probe_loss(&model, &object, &bad);
    }
}
