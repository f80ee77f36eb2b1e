//! FNV-64 goldens of one probe location's loss and gradient.
//!
//! Recorded at commit f7945ca and asserted unchanged since: the net under
//! every restructuring of the multi-slice chain (its transforms, the products
//! between them, the buffers they run in). The cases cover the benchmark's
//! window (128 px × 8 slices), a small multi-slice window, and a one-slice
//! window whose object and measurement are cut to a support by a threshold,
//! so the chain runs over exact zeros.
//!
//! `GOLDEN_GRADIENT_F32` holds the same cases through the complex-`f32`
//! model the reconstruction runs (the patch rounded to `f32`, the `f64`
//! measurement read as is), recorded when that model was introduced. The
//! `f32` gradient is also bounded against the `f64` one.

use ptycho_array::{Array2, Array3};
use ptycho_fft::{CArray3, Complex, Complex64, Real};
use ptycho_sim::physics::ImagingGeometry;
use ptycho_sim::{probe_gradient_into, MultisliceModel, Probe, ProbeConfig, SimWorkspace};

/// FNV-1a over the little-endian bit patterns of every `re, im` part, each
/// part as wide as its type (8 bytes for `f64`, 4 for `f32`).
fn fnv1a64<R: Real>(values: &[Complex<R>]) -> u64 {
    let width = std::mem::size_of::<R>();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for part in [v.re, v.im] {
            for &byte in &part.bit_pattern().to_le_bytes()[..width] {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

fn model<R: Real>(window_px: usize, slices: usize) -> MultisliceModel<R> {
    let probe = Probe::new(ProbeConfig {
        window_px,
        geometry: ImagingGeometry {
            pixel_size_pm: 50.0,
            defocus_pm: 10_000.0,
            ..ImagingGeometry::paper()
        },
        total_intensity: 1.0,
    });
    MultisliceModel::new(probe, slices).narrowed()
}

/// A weak, exactly representable transmission patch, free of libm calls.
fn patch(slices: usize, n: usize, seed: usize) -> CArray3 {
    Array3::from_fn(slices, n, n, |s, r, c| {
        let i = (s * 7 + seed) * n * n + r * n + c;
        Complex64::new(
            1.0 - ((i * 31 + 7) % 97) as f64 / 1024.0,
            (((i * 17 + 3) % 89) as f64 - 44.0) / 2048.0,
        )
    })
}

/// `(window, slices, support threshold, loss bits, gradient hash)`. With a
/// threshold, object voxels where the probe intensity is below `threshold ·
/// max` are zero, and so are measured amplitudes below `threshold · max`.
const GOLDEN_GRADIENT: [(usize, usize, Option<f64>, u64, u64); 3] = [
    (128, 8, None, 0x40285c69ed0e1996, 0xcecc160b5f982559),
    (32, 4, None, 0x3ffbe4dca6cd9fe5, 0xd0d6321fb2ee5aa6),
    (16, 1, Some(0.125), 0x4031a9b2f02fc2ad, 0x8cd0969abfeb667b),
];

/// The loss and gradient of one golden case through the model of precision
/// `R`: the guess is [`patch`] rounded to `R`, the measurement the `f64`
/// model's amplitude of another patch.
fn case<R: Real>(
    window: usize,
    slices: usize,
    threshold: Option<f64>,
) -> (f64, Array3<Complex<R>>) {
    let wide = model::<f64>(window, slices);
    let mut guess = patch(slices, window, 0);
    let mut measured = wide.simulate_amplitude(&patch(slices, window, 1));
    if let Some(threshold) = threshold {
        let intensity = wide.probe().field().map(|p| p.norm_sqr());
        let bright = intensity.iter().fold(0.0f64, |m, &v| m.max(v));
        for s in 0..slices {
            for (t, &i) in guess.slice_data_mut(s).iter_mut().zip(intensity.as_slice()) {
                if i < threshold * bright {
                    *t = Complex64::ZERO;
                }
            }
        }
        let peak = measured.iter().fold(0.0f64, |m, &v| m.max(v));
        measured = Array2::from_fn(window, window, |r, c| {
            let y = measured[(r, c)];
            if y < threshold * peak {
                0.0
            } else {
                y
            }
        });
    }
    let model = model::<R>(window, slices);
    let guess = guess.map(|v| Complex::narrow(*v));
    let mut ws = SimWorkspace::for_model(&model);
    let mut gradient = Array3::full(slices, window, window, Complex::ZERO);
    let loss = probe_gradient_into(&model, &guess, &measured, &mut ws, &mut gradient);
    (loss, gradient)
}

#[test]
fn probe_gradient_matches_recorded_goldens() {
    for &(window, slices, threshold, loss_bits, gradient_hash) in &GOLDEN_GRADIENT {
        let (loss, gradient) = case::<f64>(window, slices, threshold);
        let got = (loss.to_bits(), fnv1a64(gradient.as_slice()));
        assert_eq!(
            got,
            (loss_bits, gradient_hash),
            "{window} px x {slices} slices, threshold {threshold:?}: got ({:#018x}, {:#018x})",
            got.0,
            got.1,
        );
    }
}

/// `(window, slices, support threshold, loss bits, gradient hash)` of the
/// `f32` model; the loss is summed in `f64`.
const GOLDEN_GRADIENT_F32: [(usize, usize, Option<f64>, u64, u64); 3] = [
    (128, 8, None, 0x40285c5ace83d2d0, 0x3e8862d3dbfc0102),
    (32, 4, None, 0x3ffbe4dc28e5f1c7, 0x7a534e0193b7ce14),
    (16, 1, Some(0.125), 0x4031a9b2f64efcff, 0x9a3502e283021d0e),
];

#[test]
fn f32_probe_gradient_matches_recorded_goldens() {
    for &(window, slices, threshold, loss_bits, gradient_hash) in &GOLDEN_GRADIENT_F32 {
        let (loss, gradient) = case::<f32>(window, slices, threshold);
        let got = (loss.to_bits(), fnv1a64(gradient.as_slice()));
        assert_eq!(
            got,
            (loss_bits, gradient_hash),
            "f32, {window} px x {slices} slices, threshold {threshold:?}: \
             got ({:#018x}, {:#018x})",
            got.0,
            got.1,
        );
    }
}

#[test]
fn f32_gradient_stays_within_its_bound_of_the_f64_gradient() {
    // The benchmark's window, 128 px × 8 slices: 30 transforms and the
    // products between them, all in f32. Relative L2 distance of the
    // gradient, and relative distance of the loss, each at most
    // `F32_GRADIENT_BOUND`. Measured on x86_64: 2.8e-5 for the gradient
    // and 9.5e-6 for the loss.
    const F32_GRADIENT_BOUND: f64 = 1e-4;
    let (wide_loss, wide) = case::<f64>(128, 8, None);
    let (loss, narrow) = case::<f32>(128, 8, None);
    let (mut err, mut norm) = (0.0, 0.0);
    for (a, b) in wide.iter().zip(narrow.iter()) {
        err += (b.widen() - *a).norm_sqr();
        norm += a.norm_sqr();
    }
    let gradient_err = (err / norm).sqrt();
    let loss_err = ((loss - wide_loss) / wide_loss).abs();
    assert!(
        gradient_err <= F32_GRADIENT_BOUND && loss_err <= F32_GRADIENT_BOUND,
        "gradient {gradient_err:.3e}, loss {loss_err:.3e}"
    );
}
