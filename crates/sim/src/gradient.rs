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
//!
//! Every function runs at the model's precision `R` (see
//! [`crate::multislice`]): the measurement, stored in `f64`, is rounded to
//! `R` as it is read, each residual `|D| − y` is formed in `R`, and the loss
//! sums the residuals' squares in `f64`.

use crate::multislice::{ForwardPass, MultisliceModel, SimWorkspace};
use ptycho_array::{Array2, Array3};
use ptycho_fft::fft2d::Factor;
use ptycho_fft::{CArray3, Complex, Real};

/// The result of evaluating one probe location: the scalar data-fidelity cost
/// and the gradient with respect to the object patch.
#[derive(Clone, Debug)]
pub struct GradientResult<R: Real = f64> {
    /// The squared-error cost `f_i(V) = Σ_k (|y_k| − |G_k|)²`.
    pub loss: f64,
    /// Gradient with respect to the object transmission patch, shape
    /// `(slices, window, window)`.
    pub gradient: Array3<Complex<R>>,
}

/// Computes the data-fidelity cost for one probe location without the gradient.
pub fn probe_loss<R: Real>(
    model: &MultisliceModel<R>,
    object_patch: &Array3<Complex<R>>,
    measured_amplitude: &Array2<f64>,
) -> f64 {
    let pass = model.forward(object_patch);
    loss_from_pass(&pass, measured_amplitude)
}

/// The residual `a − y` of the amplitude `a = |D|`, in the working
/// precision: `y` is rounded to it as it is read.
#[inline]
fn residual<R: Real>(a: R, y: f64) -> R {
    a - R::from_f64(y)
}

fn loss_from_pass<R: Real>(pass: &ForwardPass<R>, measured_amplitude: &Array2<f64>) -> f64 {
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
        .map(|(d, y)| {
            let r = residual(d.abs(), *y).to_f64();
            r * r
        })
        .sum()
}

/// Computes the cost *and* the gradient `∂f_i/∂conj(t)` for one probe location
/// by back-propagating through the multi-slice model.
///
/// By-value wrapper over [`probe_gradient_into`] — it allocates a fresh
/// [`SimWorkspace`] and gradient volume per call. Hot loops should hold a
/// workspace and call [`probe_gradient_by_slice`] directly.
pub fn probe_gradient<R: Real>(
    model: &MultisliceModel<R>,
    object_patch: &Array3<Complex<R>>,
    measured_amplitude: &Array2<f64>,
) -> GradientResult<R> {
    let n = model.window_px();
    let mut ws = SimWorkspace::for_model(model);
    let mut gradient = Array3::full(model.slices(), n, n, Complex::ZERO);
    let loss = probe_gradient_into(
        model,
        object_patch,
        measured_amplitude,
        &mut ws,
        &mut gradient,
    );
    GradientResult { loss, gradient }
}

/// [`probe_gradient_by_slice`] over an object patch (shape `(slices,
/// window, window)`) into a caller-owned `gradient` volume of the same
/// shape: each slice's gradient is copied into its plane. Returns the probe
/// loss.
///
/// # Panics
/// Panics if any shape does not match the model.
pub fn probe_gradient_into<R: Real>(
    model: &MultisliceModel<R>,
    object_patch: &Array3<Complex<R>>,
    measured_amplitude: &Array2<f64>,
    ws: &mut SimWorkspace<R>,
    gradient: &mut Array3<Complex<R>>,
) -> f64 {
    let n = model.window_px();
    model.check_patch(object_patch);
    assert_eq!(
        gradient.shape(),
        (model.slices(), n, n),
        "gradient shape {:?} does not match model (slices={}, window={})",
        gradient.shape(),
        model.slices(),
        n
    );
    let mut patch = PatchSlices {
        patch: object_patch,
        gradient,
    };
    probe_gradient_by_slice(model, &mut patch, measured_amplitude, ws)
}

/// The object one probe is evaluated against, read one slice at a time, and
/// where its gradient goes: the caller side of [`probe_gradient_by_slice`].
/// One object does both because both usually borrow the same volume — a
/// reconstruction's tile, which `take` may step (`t_s ← t_s − α·g_s`).
pub trait ObjectSlices<R: Real> {
    /// Writes the probe window's slice `s` of the object, `t_s` (row-major,
    /// `window × window`), into `t`.
    fn load(&self, s: usize, t: &mut [Complex<R>]);

    /// Takes slice `s`'s gradient `g_s = ∂f_i/∂conj(t_s)` (row-major,
    /// `window × window`). Every `load` of slice `s` comes before it, so it
    /// may change slice `s` of the object.
    fn take(&mut self, s: usize, g: &[Complex<R>]);
}

/// An object patch as an [`ObjectSlices`] whose gradient is copied into a
/// volume.
struct PatchSlices<'a, R: Real> {
    patch: &'a Array3<Complex<R>>,
    gradient: &'a mut Array3<Complex<R>>,
}

impl<R: Real> ObjectSlices<R> for PatchSlices<'_, R> {
    fn load(&self, s: usize, t: &mut [Complex<R>]) {
        t.copy_from_slice(self.patch.slice_data(s));
    }

    fn take(&mut self, s: usize, g: &[Complex<R>]) {
        self.gradient.slice_data_mut(s).copy_from_slice(g);
    }
}

/// The one adjoint: evaluates the forward model and its adjoint entirely
/// inside `ws`'s reusable buffers, reading the object from `object` one
/// slice at a time and handing each slice's gradient `g_s` (row-major,
/// `window × window`) to `object.take(s, g_s)` as soon as it is computed —
/// every slice exactly once, from the last slice down to slice 0 — so
/// neither an object patch nor a gradient volume is held. Returns the probe
/// loss.
///
/// The forward pass loads every slice once, in ascending order; the
/// adjoint loads slice `s > 0` once more, after forming `g_s` and before
/// handing it over. `g_s` lives in the workspace's back-propagation buffer,
/// which holds nothing live at that point; it is overwritten after `take`
/// returns.
///
/// # Panics
/// Panics if the workspace or the measurement does not match the model.
pub fn probe_gradient_by_slice<R: Real>(
    model: &MultisliceModel<R>,
    object: &mut impl ObjectSlices<R>,
    measured_amplitude: &Array2<f64>,
    ws: &mut SimWorkspace<R>,
) -> f64 {
    model.forward_from(|s, t| object.load(s, t), ws);

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
        let r = residual(a, *y);
        let wide = r.to_f64();
        loss += wide * wide;
        *b = if a == R::ZERO {
            Complex::ZERO
        } else {
            d.scale(r / a) * h.conj()
        };
    }

    // Back through the last slice's FFT: the adjoint of the unnormalised
    // forward transform is the unnormalised inverse transform, F^H = N · F⁻¹.
    // From here on the far-field buffer, which nothing reads any more, holds
    // ∂L/∂conj(a_s) where a_s = t_s ⊙ psi_s, and `back` holds each slice's
    // gradient until `take` has it, then serves as the spectrum scratch of
    // the propagation to the slice before.
    let fft = model.plan().fft();
    fft.inverse_unnormalized_fused(far_field, back.as_slice(), None);

    // Back through the slices in reverse order.
    for s in (0..model.slices()).rev() {
        // ∂L/∂conj(t_s) = ∂L/∂conj(a_s) ⊙ conj(psi_s).
        let psi_s = match s {
            0 => model.probe_field(),
            _ => &incident[s - 1],
        };
        for ((g, d_a), p) in back
            .as_mut_slice()
            .iter_mut()
            .zip(far_field.as_slice())
            .zip(psi_s.as_slice())
        {
            *g = *d_a * p.conj();
        }
        if s == 0 {
            object.take(s, back.as_slice());
            break;
        }
        // psi_s is dead: its field takes t_s, read before `take` may step
        // slice s.
        let t_s = &mut incident[s - 1];
        object.load(s, t_s.as_mut_slice());
        object.take(s, back.as_slice());
        // ∂L/∂conj(psi_s) = ∂L/∂conj(a_s) ⊙ conj(t_s), pulled through the
        // propagator between slices s − 1 and s; each product is taken as
        // the transform after it loads its input.
        let t_s = Some(Factor::MulConj(t_s.as_slice()));
        fft.forward_fused(back, far_field.as_slice(), t_s);
        let adjoint = Some(model.plan().adjoint_transfer_factor());
        fft.inverse_unnormalized_fused(far_field, back.as_slice(), adjoint);
    }
    loss
}

/// A well-scaled gradient-descent step size for the given model, following the
/// ePIE normalisation: the amplitude loss has curvature of order
/// `window² · max|p|²` with respect to the transmission, so its reciprocal is a
/// stable step. Multiply by a relaxation factor in `(0, 1]` for extra safety.
pub fn suggested_step<R: Real>(model: &MultisliceModel<R>) -> f64 {
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
    use ptycho_fft::Complex64;

    fn small_model(slices: usize) -> MultisliceModel {
        small_model_in(slices)
    }

    fn small_model_in<R: Real>(slices: usize) -> MultisliceModel<R> {
        let probe = Probe::new(ProbeConfig {
            window_px: 16,
            geometry: ImagingGeometry {
                pixel_size_pm: 50.0,
                defocus_pm: 5_000.0,
                ..ImagingGeometry::paper()
            },
            total_intensity: 1.0,
        });
        MultisliceModel::new(probe, slices).narrowed()
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

    fn gradients_match_scalar<R: Real>() {
        use ptycho_fft::SimdLevel;
        // The whole chain — every transform and its adjoint — against the
        // scalar tier: the dispatch tier must not reach a single bit of the
        // loss or the gradient.
        for slices in [1usize, 3] {
            let scalar = small_model_in::<R>(slices).with_simd_level(SimdLevel::Scalar);
            let truth = phase_object(slices, 16, 0.3);
            let measured = small_model(slices).simulate_amplitude(&truth);
            let guess = phase_object(slices, 16, 0.1).map(|v| Complex::narrow(*v));
            let mut ws = SimWorkspace::for_model(&scalar);
            let mut reference = Array3::full(slices, 16, 16, Complex::ZERO);
            let reference_loss =
                probe_gradient_into(&scalar, &guess, &measured, &mut ws, &mut reference);
            for level in SimdLevel::available_levels() {
                let pinned = small_model_in::<R>(slices).with_simd_level(level);
                assert_eq!(pinned.plan().fft().simd_level(), level);
                let mut gradient = Array3::full(slices, 16, 16, Complex::ONE);
                let loss = probe_gradient_into(&pinned, &guess, &measured, &mut ws, &mut gradient);
                assert_eq!(
                    loss.to_bits(),
                    reference_loss.to_bits(),
                    "loss, {slices} slices at {level:?}"
                );
                for (a, b) in reference.iter().zip(gradient.iter()) {
                    assert_eq!(
                        (a.re.bit_pattern(), a.im.bit_pattern()),
                        (b.re.bit_pattern(), b.im.bit_pattern()),
                        "gradient, {slices} slices at {level:?}"
                    );
                }
            }
        }
    }

    fn bits<R: Real>(v: &[Complex<R>]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|c| (c.re.bit_pattern(), c.im.bit_pattern()))
            .collect()
    }

    /// The sink form hands over each slice exactly once, last slice first,
    /// at every tier bit-identical to the same slice of
    /// [`probe_gradient_into`]'s volume at the scalar tier.
    fn sink_matches_gradient_into<R: Real>() {
        use ptycho_fft::SimdLevel;
        for slices in [1usize, 3] {
            let truth = phase_object(slices, 16, 0.3);
            let measured = small_model(slices).simulate_amplitude(&truth);
            let guess = phase_object(slices, 16, 0.1).map(|v| Complex::narrow(*v));
            let scalar = small_model_in::<R>(slices).with_simd_level(SimdLevel::Scalar);
            let mut ws = SimWorkspace::for_model(&scalar);
            let mut volume = Array3::full(slices, 16, 16, Complex::ONE);
            let loss = probe_gradient_into(&scalar, &guess, &measured, &mut ws, &mut volume);
            for level in SimdLevel::available_levels() {
                let model = small_model_in::<R>(slices).with_simd_level(level);
                let mut source = SteppedObject::new(&guess);
                let sink_loss = probe_gradient_by_slice(&model, &mut source, &measured, &mut ws);
                for s in 0..slices {
                    assert_eq!(
                        bits(source.gradient.slice_data(s)),
                        bits(volume.slice_data(s)),
                        "slice {s} at {level:?}"
                    );
                }
                assert_eq!(sink_loss.to_bits(), loss.to_bits(), "loss at {level:?}");
                let descending: Vec<usize> = (0..slices).rev().collect();
                assert_eq!(source.taken, descending, "{slices} slices at {level:?}");
            }
        }
    }

    /// An object read one slice at a time whose slice `s` is overwritten as
    /// soon as its gradient `g_s` is taken, the way a local update steps the
    /// tile: a read of `t_s` after that moves bits. Collects the gradient.
    struct SteppedObject<R: Real> {
        object: Array3<Complex<R>>,
        gradient: Array3<Complex<R>>,
        taken: Vec<usize>,
    }

    impl<R: Real> SteppedObject<R> {
        fn new(object: &Array3<Complex<R>>) -> Self {
            let (slices, rows, cols) = object.shape();
            Self {
                object: object.clone(),
                gradient: Array3::full(slices, rows, cols, Complex::ONE),
                taken: Vec::new(),
            }
        }
    }

    impl<R: Real> ObjectSlices<R> for SteppedObject<R> {
        fn load(&self, s: usize, t: &mut [Complex<R>]) {
            t.copy_from_slice(self.object.slice_data(s));
        }

        fn take(&mut self, s: usize, g: &[Complex<R>]) {
            self.gradient.slice_data_mut(s).copy_from_slice(g);
            let stepped = Complex::new(R::from_f64(2.5), R::from_f64(-1.5));
            self.object.slice_data_mut(s).fill(stepped);
            self.taken.push(s);
        }
    }

    /// At every tier, the adjoint over an object whose slices are stepped
    /// as their gradients are taken equals [`probe_gradient_into`] on the
    /// unstepped patch, bit for bit.
    fn slice_source_matches_gradient_into<R: Real>() {
        use ptycho_fft::SimdLevel;
        for slices in [1usize, 2, 3] {
            let truth = phase_object(slices, 16, 0.3);
            let measured = small_model(slices).simulate_amplitude(&truth);
            let guess = phase_object(slices, 16, 0.1).map(|v| Complex::narrow(*v));
            for level in SimdLevel::available_levels() {
                let model = small_model_in::<R>(slices).with_simd_level(level);
                let mut ws = SimWorkspace::for_model(&model);
                let mut reference = Array3::full(slices, 16, 16, Complex::ZERO);
                let loss = probe_gradient_into(&model, &guess, &measured, &mut ws, &mut reference);
                let mut source = SteppedObject::new(&guess);
                let source_loss = probe_gradient_by_slice(&model, &mut source, &measured, &mut ws);
                let case = format!("{slices} slices at {level:?}");
                assert_eq!(source_loss.to_bits(), loss.to_bits(), "loss, {case}");
                assert_eq!(
                    bits(source.gradient.as_slice()),
                    bits(reference.as_slice()),
                    "gradient, {case}"
                );
                let descending: Vec<usize> = (0..slices).rev().collect();
                assert_eq!(source.taken, descending, "{case}");
            }
        }
    }

    #[test]
    fn slice_source_adjoint_equals_gradient_into_with_each_slice_stepped_once_taken() {
        slice_source_matches_gradient_into::<f64>();
        slice_source_matches_gradient_into::<f32>();
    }

    #[test]
    fn sink_gets_each_slice_once_in_descending_order_as_gradient_into_does() {
        sink_matches_gradient_into::<f64>();
        sink_matches_gradient_into::<f32>();
    }

    #[test]
    fn gradient_is_bit_identical_at_every_simd_tier() {
        gradients_match_scalar::<f64>();
        gradients_match_scalar::<f32>();
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
