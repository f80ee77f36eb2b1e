//! FNV-64 goldens of one probe location's loss and gradient.
//!
//! Recorded at commit f7945ca and asserted unchanged since: the net under
//! every restructuring of the multi-slice chain (its transforms, the products
//! between them, the buffers they run in). The cases cover the benchmark's
//! window (128 px × 8 slices), a small multi-slice window, and a one-slice
//! window whose object and measurement are cut to a support by a threshold,
//! so the chain runs over exact zeros.

use ptycho_array::{Array2, Array3};
use ptycho_fft::{CArray3, Complex64};
use ptycho_sim::physics::ImagingGeometry;
use ptycho_sim::{probe_gradient_into, MultisliceModel, Probe, ProbeConfig, SimWorkspace};

fn fnv1a64(values: &[Complex64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in
            v.re.to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(v.im.to_bits().to_le_bytes())
        {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn model(window_px: usize, slices: usize) -> MultisliceModel {
    let probe = Probe::new(ProbeConfig {
        window_px,
        geometry: ImagingGeometry {
            pixel_size_pm: 50.0,
            defocus_pm: 10_000.0,
            ..ImagingGeometry::paper()
        },
        total_intensity: 1.0,
    });
    MultisliceModel::new(probe, slices)
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

#[test]
fn probe_gradient_matches_recorded_goldens() {
    for &(window, slices, threshold, loss_bits, gradient_hash) in &GOLDEN_GRADIENT {
        let model = model(window, slices);
        let mut guess = patch(slices, window, 0);
        let mut measured = model.simulate_amplitude(&patch(slices, window, 1));
        if let Some(threshold) = threshold {
            let intensity = model.probe().field().map(|p| p.norm_sqr());
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
        let mut ws = SimWorkspace::for_model(&model);
        let mut gradient = Array3::full(slices, window, window, Complex64::ZERO);
        let loss = probe_gradient_into(&model, &guess, &measured, &mut ws, &mut gradient);
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
