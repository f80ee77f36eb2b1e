//! The multi-slice forward model `G` (Eqn. 1, ref. \[14\]).
//!
//! For one probe location the model takes the probe wavefunction and the
//! object patch covered by the probe window and alternates two operations per
//! slice: *transmission* (multiply by the slice's complex transmission
//! function) and *propagation* (Fresnel free-space propagation to the next
//! slice, a diagonal operator in the Fourier domain). The far-field diffraction
//! pattern is the Fourier transform of the exit wave; its magnitude is compared
//! against the measured magnitude in the Maximum-Likelihood cost.
//!
//! This is the computational kernel whose `N log N` FFT cost the paper
//! identifies as the source of super-linear strong scaling (Sec. VI-C).
//!
//! # Precision
//!
//! The model is generic over the real type `R` of its fields, `f64` unless
//! named. Synthesis runs it at `f64`; every per-probe evaluation of a
//! reconstruction runs the `f32` instantiation, as the paper's GPUs do. Both
//! are the same code, and every table an `f32` model holds — twiddles,
//! `H / window²`, the probe — is the `f64` table rounded once.

use crate::probe::Probe;
use ptycho_array::{Array2, Array3};
use ptycho_fft::fft2d::{Factor, Fft2Plan};
use ptycho_fft::{Complex, Complex64, Real};
use std::f64::consts::PI;

/// Precomputed Fresnel propagator and FFT plan for a probe window.
#[derive(Clone, Debug)]
pub struct PropagationPlan<R: Real = f64> {
    window_px: usize,
    fft: Fft2Plan<R>,
    /// Fresnel transfer function `H(k) = exp(-iπλΔz|k|²)` in unshifted layout.
    transfer: Array2<Complex<R>>,
    /// `H / window²`: the transfer function with the inverse transform's
    /// normalisation folded in (exact — `window²` is a power of two), so a
    /// propagation is a forward FFT and an unnormalised inverse that
    /// multiplies by it as it loads each value.
    transfer_scaled: Array2<Complex<R>>,
}

impl PropagationPlan {
    /// Builds the propagator for a square window of `window_px` pixels with
    /// the given wavelength, pixel size and slice spacing (all in picometres).
    pub fn new(window_px: usize, wavelength_pm: f64, pixel_size_pm: f64, slice_dz_pm: f64) -> Self {
        assert!(window_px.is_power_of_two(), "window must be a power of two");
        let n = window_px;
        let dk = 1.0 / (n as f64 * pixel_size_pm);
        let transfer = Array2::from_fn(n, n, |r, c| {
            let fr = if r <= n / 2 {
                r as f64
            } else {
                r as f64 - n as f64
            };
            let fc = if c <= n / 2 {
                c as f64
            } else {
                c as f64 - n as f64
            };
            let k2 = (fr * dk) * (fr * dk) + (fc * dk) * (fc * dk);
            Complex64::cis(-PI * wavelength_pm * slice_dz_pm * k2)
        });
        let normalisation = 1.0 / (n * n) as f64;
        let transfer_scaled = transfer.map(|v| v.scale(normalisation));
        Self {
            window_px,
            fft: Fft2Plan::new(n, n),
            transfer,
            transfer_scaled,
        }
    }

    /// This plan at precision `S`: each table rounded once, the FFT plan
    /// rebuilt at the same tier.
    fn narrowed<S: Real>(&self) -> PropagationPlan<S> {
        let n = self.window_px;
        PropagationPlan {
            window_px: n,
            fft: Fft2Plan::with_simd_level(n, n, self.fft.simd_level()),
            transfer: self.transfer.map(|v| Complex::narrow(*v)),
            transfer_scaled: self.transfer_scaled.map(|v| Complex::narrow(*v)),
        }
    }
}

impl<R: Real> PropagationPlan<R> {
    /// Window size in pixels.
    pub fn window_px(&self) -> usize {
        self.window_px
    }

    /// The FFT plan shared by propagation and far-field formation.
    pub fn fft(&self) -> &Fft2Plan<R> {
        &self.fft
    }

    /// The Fresnel transfer function `H`, unshifted layout. The far field of
    /// the last slice is `H ⊙ FFT(a)`, and the adjoint enters through
    /// `conj(H)`.
    pub(crate) fn transfer(&self) -> &Array2<Complex<R>> {
        &self.transfer
    }

    /// `· H / window²`, the load factor of a propagation's inverse transform:
    /// a propagation by one slice spacing is [`Fft2Plan::forward_fused`] into
    /// a spectrum buffer, then [`Fft2Plan::inverse_unnormalized_fused`] out of
    /// it with this factor.
    pub(crate) fn transfer_factor(&self) -> Factor<'_, R> {
        Factor::Mul(self.transfer_scaled.as_slice())
    }

    /// `· conj(H) / window²`, the load factor of an adjoint propagation's
    /// inverse transform (see [`Self::transfer_factor`]).
    pub(crate) fn adjoint_transfer_factor(&self) -> Factor<'_, R> {
        Factor::MulConj(self.transfer_scaled.as_slice())
    }
}

/// Reusable per-worker buffers for the forward model and its adjoint: the
/// incident waves after the first (`psi_1 … psi_{slices−1}`, one
/// probe-window field each; `psi_0` is the model's probe), the far-field
/// spectrum and the back-propagation wave, `slices + 1` fields in all. The
/// last two are also the spectrum scratch of the propagations between
/// slices and receive each object slice as it is read, so none is readable
/// from outside; [`MultisliceModel::forward`] returns the far field in its
/// [`ForwardPass`].
///
/// Allocate one per worker ([`SimWorkspace::for_model`]) and thread it
/// through [`MultisliceModel::forward_with`] /
/// [`crate::gradient::probe_gradient_by_slice`]; after the first call every
/// evaluation reuses the same memory — the steady-state reconstruction loop
/// performs zero heap allocations.
#[derive(Clone, Debug)]
pub struct SimWorkspace<R: Real = f64> {
    /// `psi_1 … psi_{slices−1}`: `incident[s − 1]` enters slice `s`.
    pub(crate) incident: Vec<Array2<Complex<R>>>,
    pub(crate) far_field: Array2<Complex<R>>,
    pub(crate) back: Array2<Complex<R>>,
}

impl<R: Real> SimWorkspace<R> {
    /// Allocates a workspace sized for `model`'s window and slice count, at
    /// the model's precision.
    pub fn for_model(model: &MultisliceModel<R>) -> Self {
        let n = model.window_px();
        let zero = Array2::full(n, n, Complex::ZERO);
        Self {
            incident: vec![zero.clone(); model.slices() - 1],
            far_field: zero.clone(),
            back: zero,
        }
    }

    /// Number of slices this workspace was sized for.
    pub fn slices(&self) -> usize {
        self.incident.len() + 1
    }

    /// Probe-window side length this workspace was sized for.
    pub fn window_px(&self) -> usize {
        self.far_field.rows()
    }

    /// Bytes of field storage the workspace holds resident.
    pub fn bytes(&self) -> usize {
        let values = self.incident.iter().map(|f| f.len()).sum::<usize>()
            + self.far_field.len()
            + self.back.len();
        values * std::mem::size_of::<Complex<R>>()
    }
}

/// What [`MultisliceModel::forward`] hands back: the far field.
#[derive(Clone, Debug)]
pub struct ForwardPass<R: Real = f64> {
    /// The far-field diffraction wave `D = FFT(exit)`.
    pub far_field: Array2<Complex<R>>,
}

impl<R: Real> ForwardPass<R> {
    /// The simulated diffraction amplitude `|G(p_i, V)|`, widened to `f64`.
    pub fn amplitude(&self) -> Array2<f64> {
        self.far_field.map(|v| v.abs().to_f64())
    }

    /// The simulated diffraction intensity `|G(p_i, V)|²`, widened to `f64`.
    pub fn intensity(&self) -> Array2<f64> {
        self.far_field.map(|v| v.norm_sqr().to_f64())
    }
}

/// The multi-slice model bound to a probe and a propagation plan.
///
/// Slice `s` transmits (`a_s = psi_s ⊙ t_s`) and propagates
/// (`psi_{s+1} = IFFT(H ⊙ FFT(a_s))`), and the far field is the transform of
/// the exit wave. The last slice's inverse transform would be undone at once
/// by that far-field transform, `FFT(IFFT(H ⊙ FFT(a))) = H ⊙ FFT(a)`, so
/// neither is evaluated: a forward pass runs `2·slices − 1` transforms, and
/// the adjoint in [`crate::gradient`] drops the mirror-image pair.
#[derive(Clone, Debug)]
pub struct MultisliceModel<R: Real = f64> {
    probe: Probe,
    /// The probe field at precision `R`: the first incident wave `psi_0`.
    probe_field: Array2<Complex<R>>,
    plan: PropagationPlan<R>,
    slices: usize,
}

impl MultisliceModel {
    /// Creates an `f64` model for `slices` object slices using the probe's
    /// imaging geometry for the propagator.
    pub fn new(probe: Probe, slices: usize) -> Self {
        assert!(slices > 0, "need at least one slice");
        let geom = probe.config().geometry;
        let plan = PropagationPlan::new(
            probe.window_px(),
            geom.wavelength_pm(),
            geom.pixel_size_pm,
            geom.slice_thickness_pm,
        );
        Self {
            probe_field: probe.field().clone(),
            probe,
            plan,
            slices,
        }
    }

    /// This model at precision `S` (`f32`: the reconstruction's working
    /// precision): the probe field and the propagator tables each rounded
    /// once, the same probe, slice count and FFT tier.
    pub fn narrowed<S: Real>(&self) -> MultisliceModel<S> {
        MultisliceModel {
            probe: self.probe.clone(),
            probe_field: self.probe_field.map(|v| Complex::narrow(*v)),
            plan: self.plan.narrowed(),
            slices: self.slices,
        }
    }
}

impl<R: Real> MultisliceModel<R> {
    /// The probe this model simulates (its `f64` field).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The propagation plan (FFT + Fresnel transfer function).
    pub fn plan(&self) -> &PropagationPlan<R> {
        &self.plan
    }

    /// Number of object slices the model expects.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Side length of the probe window in pixels.
    pub fn window_px(&self) -> usize {
        self.probe.window_px()
    }

    /// The probe field at precision `R`, `psi_0`: the adjoint reads it for
    /// the first slice's gradient, so no workspace holds a copy.
    pub(crate) fn probe_field(&self) -> &Array2<Complex<R>> {
        &self.probe_field
    }

    /// Runs the forward model on an object patch (shape
    /// `(slices, window, window)`) and returns the far field.
    ///
    /// By-value wrapper over [`Self::forward_with`] — it allocates a fresh
    /// [`SimWorkspace`] per call. Hot loops should hold a workspace and call
    /// `forward_with` directly.
    ///
    /// # Panics
    /// Panics if the patch shape does not match the model.
    pub fn forward(&self, object_patch: &Array3<Complex<R>>) -> ForwardPass<R> {
        let mut ws = SimWorkspace::for_model(self);
        self.forward_with(object_patch, &mut ws);
        ForwardPass {
            far_field: ws.far_field,
        }
    }

    /// Runs the forward model on an object patch into a reusable
    /// [`SimWorkspace`]: the incident waves and far field are written into
    /// `ws`'s buffers, so repeated calls perform zero heap allocations.
    ///
    /// # Panics
    /// Panics if the patch or workspace does not match the model.
    pub fn forward_with(&self, object_patch: &Array3<Complex<R>>, ws: &mut SimWorkspace<R>) {
        self.check_patch(object_patch);
        self.forward_from(|s, t| t.copy_from_slice(object_patch.slice_data(s)), ws);
    }

    /// Panics unless `object_patch` has the model's shape
    /// `(slices, window, window)`.
    pub(crate) fn check_patch(&self, object_patch: &Array3<Complex<R>>) {
        let n = self.window_px();
        assert_eq!(
            object_patch.shape(),
            (self.slices, n, n),
            "object patch shape {:?} does not match model (slices={}, window={})",
            object_patch.shape(),
            self.slices,
            n
        );
    }

    /// The forward model over an object read one slice at a time:
    /// `load(s, t)` writes slice `s` (row-major, `window × window`) into `t`,
    /// every slice once in ascending order. Each slice is loaded into the
    /// back-propagation buffer, which the forward pass does not otherwise
    /// use.
    ///
    /// # Panics
    /// Panics if the workspace does not match the model.
    pub(crate) fn forward_from(
        &self,
        load: impl Fn(usize, &mut [Complex<R>]),
        ws: &mut SimWorkspace<R>,
    ) {
        let n = self.window_px();
        assert_eq!(
            (ws.slices(), ws.window_px()),
            (self.slices, n),
            "workspace shape (slices={}, window={}) does not match model (slices={}, window={})",
            ws.slices(),
            ws.window_px(),
            self.slices,
            n
        );

        let SimWorkspace {
            incident,
            far_field,
            back,
        } = ws;
        let fft = &self.plan.fft;
        let last = self.slices - 1;
        for s in 0..self.slices {
            // The slice's spectrum FFT(psi_s ⊙ t_s), the product taken as the
            // transform loads psi_s; the far-field buffer holds it until the
            // last slice's spectrum becomes D.
            load(s, back.as_mut_slice());
            let (before, after) = incident.split_at_mut(s);
            let psi_s = before.last().unwrap_or(&self.probe_field);
            let t_s = Factor::Mul(back.as_slice());
            fft.forward_fused(far_field, psi_s.as_slice(), Some(t_s));
            if s < last {
                // psi_{s+1} = IFFT(H ⊙ spectrum), the product again on load.
                let h = Some(self.plan.transfer_factor());
                fft.inverse_unnormalized_fused(&mut after[0], far_field.as_slice(), h);
            } else {
                // D = H ⊙ FFT(a_last).
                far_field.zip_apply(&self.plan.transfer, |d, h| *d *= *h);
            }
        }
    }

    /// Convenience wrapper returning only the diffraction amplitude.
    pub fn simulate_amplitude(&self, object_patch: &Array3<Complex<R>>) -> Array2<f64> {
        self.forward(object_patch).amplitude()
    }

    /// Number of 2-D FFTs a forward pass executes: one propagation pair per
    /// slice but the last, whose single forward transform already is the far
    /// field. The adjoint pass of the gradient executes the same count.
    pub fn ffts_per_forward(&self) -> usize {
        2 * self.slices - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physics::ImagingGeometry;
    use crate::probe::ProbeConfig;
    use ptycho_fft::{CArray2, CArray3};

    impl<R: Real> MultisliceModel<R> {
        /// Pins every transform of the model to `level` instead of the
        /// detected tier, for the cross-tier identity tests.
        pub(crate) fn with_simd_level(mut self, level: ptycho_fft::SimdLevel) -> Self {
            let n = self.window_px();
            self.plan.fft = Fft2Plan::with_simd_level(n, n, level);
            self
        }
    }

    fn test_probe(window: usize) -> Probe {
        Probe::new(ProbeConfig {
            window_px: window,
            geometry: ImagingGeometry {
                pixel_size_pm: 50.0,
                defocus_pm: 10_000.0,
                ..ImagingGeometry::paper()
            },
            total_intensity: 1.0,
        })
    }

    fn vacuum(slices: usize, window: usize) -> CArray3 {
        Array3::full(slices, window, window, Complex64::ONE)
    }

    /// One propagation by the transform pair the forward model and the
    /// adjoint run: the forward transform of `wave` into a spectrum buffer,
    /// then the unnormalised inverse, times `factor` on load, out of it.
    fn propagate(plan: &PropagationPlan, wave: &CArray2, factor: Factor<'_>) -> CArray2 {
        let mut spectrum = wave.clone();
        plan.fft()
            .forward_fused(&mut spectrum, wave.as_slice(), None);
        let mut out = wave.clone();
        plan.fft()
            .inverse_unnormalized_fused(&mut out, spectrum.as_slice(), Some(factor));
        out
    }

    fn energy(field: &CArray2) -> f64 {
        field.as_slice().iter().map(|v| v.norm_sqr()).sum()
    }

    #[test]
    fn propagation_conserves_energy() {
        // Through a vacuum every incident wave after the first is the one
        // before it propagated by `forward_with`'s transform pair.
        let probe = test_probe(32);
        let model = MultisliceModel::new(probe, 3);
        let mut ws = SimWorkspace::for_model(&model);
        model.forward_with(&vacuum(3, 32), &mut ws);
        let e0 = energy(model.probe().field());
        for (s, psi) in (1..3).zip(&ws.incident) {
            assert!((energy(psi) - e0).abs() < 1e-9 * e0, "slice {s}");
        }
    }

    #[test]
    fn propagate_then_adjoint_is_identity() {
        let probe = test_probe(32);
        let model = MultisliceModel::new(probe, 1);
        let plan = model.plan();
        let wave = model.probe().field().clone();
        let propagated = propagate(plan, &wave, plan.transfer_factor());
        let roundtrip = propagate(plan, &propagated, plan.adjoint_transfer_factor());
        for (a, b) in roundtrip.as_slice().iter().zip(wave.as_slice()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn vacuum_preserves_total_intensity() {
        let probe = test_probe(32);
        let dose = probe.total_intensity();
        let model = MultisliceModel::new(probe, 4);
        let pass = model.forward(&vacuum(4, 32));
        // Parseval: far-field intensity = N² x real-space intensity for an
        // unnormalised FFT of an energy-preserving chain.
        let n2 = (32.0f64 * 32.0).recip();
        let far_energy: f64 = pass.far_field.as_slice().iter().map(|v| v.norm_sqr()).sum();
        assert!((far_energy * n2 - dose).abs() < 1e-9);
    }

    #[test]
    fn phase_object_changes_diffraction() {
        let probe = test_probe(32);
        let model = MultisliceModel::new(probe, 2);
        let vacuum_amp = model.simulate_amplitude(&vacuum(2, 32));
        // A phase grating.
        let grating = Array3::from_fn(2, 32, 32, |_, _, c| {
            Complex64::cis(if c % 4 < 2 { 0.3 } else { -0.3 })
        });
        let grating_amp = model.simulate_amplitude(&grating);
        let diff: f64 = vacuum_amp
            .as_slice()
            .iter()
            .zip(grating_amp.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "diffraction should respond to the object");
    }

    #[test]
    fn forward_keeps_all_intermediates() {
        let probe = test_probe(16);
        let model = MultisliceModel::new(probe, 3);
        let pass = model.forward(&vacuum(3, 16));
        // The workspace keeps the incident waves the adjoint reads: every
        // one but the first, which is the model's probe.
        let mut ws = SimWorkspace::for_model(&model);
        model.forward_with(&vacuum(3, 16), &mut ws);
        assert_eq!((ws.slices(), ws.incident.len()), (3, 2));
        assert_eq!(ws.bytes(), 4 * 16 * 16 * std::mem::size_of::<Complex64>());
        assert_eq!(pass.far_field.shape(), (16, 16));
        assert_eq!(pass.amplitude().shape(), (16, 16));
    }

    #[test]
    fn forward_with_matches_by_value_forward_bit_exactly() {
        let probe = test_probe(16);
        let model = MultisliceModel::new(probe, 3);
        let object = Array3::from_fn(3, 16, 16, |s, r, c| {
            Complex64::cis(0.1 * ((s + 2 * r + c) as f64).sin())
        });
        let pass = model.forward(&object);
        let mut fresh = SimWorkspace::for_model(&model);
        model.forward_with(&object, &mut fresh);
        let mut ws = SimWorkspace::for_model(&model);
        // Run twice through the same workspace: reuse must not change results.
        model.forward_with(&vacuum(3, 16), &mut ws);
        model.forward_with(&object, &mut ws);
        for (a, b) in pass
            .far_field
            .as_slice()
            .iter()
            .zip(ws.far_field.as_slice())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        for (psi_fresh, psi) in fresh.incident.iter().zip(&ws.incident) {
            for (a, b) in psi_fresh.as_slice().iter().zip(psi.as_slice()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "workspace shape")]
    fn mismatched_workspace_panics() {
        let probe = test_probe(16);
        let model = MultisliceModel::new(probe, 2);
        let other = MultisliceModel::new(test_probe(16), 3);
        let mut ws = SimWorkspace::for_model(&other);
        model.forward_with(&vacuum(2, 16), &mut ws);
    }

    #[test]
    fn fft_count_model() {
        let model = MultisliceModel::new(test_probe(16), 5);
        assert_eq!(model.ffts_per_forward(), 9);
        // A single slice is one transform: its spectrum is the far field.
        assert_eq!(
            MultisliceModel::new(test_probe(16), 1).ffts_per_forward(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn wrong_patch_shape_panics() {
        let probe = test_probe(16);
        let model = MultisliceModel::new(probe, 2);
        let _ = model.forward(&vacuum(3, 16));
    }

    #[test]
    fn amplitude_and_intensity_consistent() {
        let probe = test_probe(16);
        let model = MultisliceModel::new(probe, 1);
        let pass = model.forward(&vacuum(1, 16));
        let amp = pass.amplitude();
        let int = pass.intensity();
        for (a, i) in amp.as_slice().iter().zip(int.as_slice()) {
            assert!((a * a - i).abs() < 1e-9);
        }
    }
}
