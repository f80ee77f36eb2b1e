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

use crate::probe::Probe;
use ptycho_array::Array2;
use ptycho_fft::fft2d::Fft2Plan;
use ptycho_fft::{CArray2, CArray3, Complex64};
use std::f64::consts::PI;

/// Precomputed Fresnel propagator and FFT plan for a probe window.
#[derive(Clone, Debug)]
pub struct PropagationPlan {
    window_px: usize,
    fft: Fft2Plan,
    /// Fresnel transfer function `H(k) = exp(-iπλΔz|k|²)` in unshifted layout.
    transfer: CArray2,
    /// `H / window²`: the transfer function with the inverse transform's
    /// normalisation folded in (exact — `window²` is a power of two), so a
    /// propagation is forward FFT, one multiply sweep, unnormalised inverse.
    transfer_scaled: CArray2,
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

    /// Window size in pixels.
    pub fn window_px(&self) -> usize {
        self.window_px
    }

    /// The FFT plan shared by propagation and far-field formation.
    pub fn fft(&self) -> &Fft2Plan {
        &self.fft
    }

    /// The Fresnel transfer function `H`, unshifted layout. The far field of
    /// the last slice is `H ⊙ FFT(a)`, and the adjoint enters through
    /// `conj(H)`.
    pub(crate) fn transfer(&self) -> &CArray2 {
        &self.transfer
    }

    /// Propagates a wave by one slice spacing in place: forward FFT,
    /// elementwise transfer multiply, inverse FFT, all in `wave`'s storage.
    /// Zero heap allocations.
    pub fn propagate_in_place(&self, wave: &mut CArray2) {
        self.fft.forward_mut(wave);
        wave.zip_apply(&self.transfer_scaled, |w, h| *w *= *h);
        self.fft.inverse_unnormalized_mut(wave);
    }

    /// In-place adjoint propagation (multiplies by `conj(H)`). Zero heap
    /// allocations.
    pub fn propagate_adjoint_in_place(&self, wave: &mut CArray2) {
        self.fft.forward_mut(wave);
        wave.zip_apply(&self.transfer_scaled, |w, h| *w *= h.conj());
        self.fft.inverse_unnormalized_mut(wave);
    }
}

/// Reusable per-worker buffers for the forward model and its adjoint: the
/// incident-wave stack (one probe-window field per slice), the far-field
/// spectrum and the back-propagation wave.
///
/// Allocate one per worker ([`SimWorkspace::for_model`]) and thread it
/// through [`MultisliceModel::forward_with`] /
/// [`crate::gradient::probe_gradient_into`]; after the first call every
/// evaluation reuses the same memory — the steady-state reconstruction loop
/// performs zero heap allocations.
#[derive(Clone, Debug)]
pub struct SimWorkspace {
    pub(crate) incident: Vec<CArray2>,
    pub(crate) far_field: CArray2,
    pub(crate) back: CArray2,
}

impl SimWorkspace {
    /// Allocates a workspace sized for `model`'s window and slice count.
    pub fn for_model(model: &MultisliceModel) -> Self {
        let n = model.window_px();
        let zero = Array2::full(n, n, Complex64::ZERO);
        Self {
            incident: vec![zero.clone(); model.slices()],
            far_field: zero.clone(),
            back: zero,
        }
    }

    /// The far-field diffraction wave `D` of the latest
    /// [`MultisliceModel::forward_with`] call.
    pub fn far_field(&self) -> &CArray2 {
        &self.far_field
    }

    /// The incident wave at the entrance of slice `s` (`s < slices`) of the
    /// latest forward pass.
    pub fn incident(&self, s: usize) -> &CArray2 {
        &self.incident[s]
    }

    /// Number of slices this workspace was sized for.
    pub fn slices(&self) -> usize {
        self.incident.len()
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
        values * std::mem::size_of::<Complex64>()
    }
}

/// Everything the forward pass produced, retained for the adjoint pass.
#[derive(Clone, Debug)]
pub struct ForwardPass {
    /// The incident wave at the entrance of every slice (`psi_s` before
    /// transmission), length `slices`. The exit wave is never formed: the
    /// far field comes straight from the last slice's spectrum.
    pub incident: Vec<CArray2>,
    /// The far-field diffraction wave `D = FFT(exit)`.
    pub far_field: CArray2,
}

impl ForwardPass {
    /// The simulated diffraction amplitude `|G(p_i, V)|`.
    pub fn amplitude(&self) -> Array2<f64> {
        self.far_field.map(|v| v.abs())
    }

    /// The simulated diffraction intensity `|G(p_i, V)|²`.
    pub fn intensity(&self) -> Array2<f64> {
        self.far_field.map(|v| v.norm_sqr())
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
pub struct MultisliceModel {
    probe: Probe,
    plan: PropagationPlan,
    slices: usize,
}

impl MultisliceModel {
    /// Creates a model for `slices` object slices using the probe's imaging
    /// geometry for the propagator.
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
            probe,
            plan,
            slices,
        }
    }

    /// Pins every transform of the model to `level` instead of the detected
    /// tier, for the cross-tier identity tests.
    #[cfg(test)]
    pub(crate) fn with_simd_level(mut self, level: ptycho_fft::SimdLevel) -> Self {
        let n = self.window_px();
        self.plan.fft = Fft2Plan::with_simd_level(n, n, level);
        self
    }

    /// The probe this model simulates.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The propagation plan (FFT + Fresnel transfer function).
    pub fn plan(&self) -> &PropagationPlan {
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

    /// Runs the forward model on an object patch (shape
    /// `(slices, window, window)`), keeping intermediates for the adjoint.
    ///
    /// By-value wrapper over [`Self::forward_with`] — it allocates a fresh
    /// [`SimWorkspace`] per call. Hot loops should hold a workspace and call
    /// `forward_with` directly.
    ///
    /// # Panics
    /// Panics if the patch shape does not match the model.
    pub fn forward(&self, object_patch: &CArray3) -> ForwardPass {
        let mut ws = SimWorkspace::for_model(self);
        self.forward_with(object_patch, &mut ws);
        ForwardPass {
            incident: ws.incident,
            far_field: ws.far_field,
        }
    }

    /// Runs the forward model into a reusable [`SimWorkspace`]: the incident
    /// stack and far field are written into `ws`'s buffers, so repeated calls
    /// perform zero heap allocations.
    ///
    /// # Panics
    /// Panics if the patch or workspace does not match the model.
    pub fn forward_with(&self, object_patch: &CArray3, ws: &mut SimWorkspace) {
        let n = self.window_px();
        assert_eq!(
            object_patch.shape(),
            (self.slices, n, n),
            "object patch shape {:?} does not match model (slices={}, window={})",
            object_patch.shape(),
            self.slices,
            n
        );
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
            ..
        } = ws;
        incident[0].copy_from(self.probe.field());
        let last = self.slices - 1;
        for s in 0..self.slices {
            // Transmission, written where the slice's spectrum is wanted:
            // the next incident wave, or the far field for the last slice.
            let (before, after) = incident.split_at_mut(s + 1);
            let wave = if s == last {
                &mut *far_field
            } else {
                &mut after[0]
            };
            let t_s = object_patch.slice_data(s);
            for ((dst, src), t) in wave
                .as_mut_slice()
                .iter_mut()
                .zip(before[s].as_slice())
                .zip(t_s)
            {
                *dst = *src * *t;
            }
            if s < last {
                self.plan.propagate_in_place(wave);
            } else {
                // D = H ⊙ FFT(a_last).
                self.plan.fft.forward_mut(wave);
                wave.zip_apply(&self.plan.transfer, |d, h| *d *= *h);
            }
        }
    }

    /// Convenience wrapper returning only the diffraction amplitude.
    pub fn simulate_amplitude(&self, object_patch: &CArray3) -> Array2<f64> {
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
    use ptycho_array::Array3;

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

    #[test]
    fn propagation_conserves_energy() {
        let probe = test_probe(32);
        let model = MultisliceModel::new(probe, 3);
        let wave = model.probe().field().clone();
        let mut propagated = wave.clone();
        model.plan().propagate_in_place(&mut propagated);
        let e0: f64 = wave.as_slice().iter().map(|v| v.norm_sqr()).sum();
        let e1: f64 = propagated.as_slice().iter().map(|v| v.norm_sqr()).sum();
        assert!((e0 - e1).abs() < 1e-9 * e0);
    }

    #[test]
    fn propagate_then_adjoint_is_identity() {
        let probe = test_probe(32);
        let model = MultisliceModel::new(probe, 1);
        let wave = model.probe().field().clone();
        let mut roundtrip = wave.clone();
        model.plan().propagate_in_place(&mut roundtrip);
        model.plan().propagate_adjoint_in_place(&mut roundtrip);
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
        assert_eq!(pass.incident.len(), 3);
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
        let mut ws = SimWorkspace::for_model(&model);
        // Run twice through the same workspace: reuse must not change results.
        model.forward_with(&object, &mut ws);
        model.forward_with(&object, &mut ws);
        for (a, b) in pass
            .far_field
            .as_slice()
            .iter()
            .zip(ws.far_field().as_slice())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        for s in 0..3 {
            for (a, b) in pass.incident[s]
                .as_slice()
                .iter()
                .zip(ws.incident(s).as_slice())
            {
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
