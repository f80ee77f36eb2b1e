//! FNV-64 goldens of dense forward / inverse spectra of a fixed input.
//!
//! `GOLDEN_1D` and `GOLDEN_2D` were recorded at commit f4fe6a5 (one radix-2
//! stage per sweep, transposed column pass) and asserted unchanged since: the
//! bit-identity net under every restructuring of the dense kernels. Lengths
//! cover odd and even stage counts; shapes cover wide, tall and both
//! degenerate 2-D cases. `GOLDEN_2D_WINDOWS` was recorded at f7945ca (row
//! pass through the 1-D plan, in-place column pass) at the window sizes the
//! workloads run, with odd and even stage counts in both directions.
//! `GOLDEN_2D_WINDOWS_F32` holds the same transforms of the same input
//! rounded to `f32`, through the `f32` plans the reconstruction runs,
//! recorded when they were introduced. At each precision every tier computes
//! the same IEEE operation sequence, so every tier the host offers must
//! reproduce the same hashes.

use ptycho_array::Array2;
use ptycho_fft::fft2d::Fft2Plan;
use ptycho_fft::{Complex, Complex64, FftPlan, SimdLevel};

/// Exactly representable pseudo-random values in `[-0.5, 0.5)`, free of any
/// libm call so the input bits are the same on every platform.
fn sample(i: usize) -> Complex64 {
    Complex64::new(
        ((i * 31 + 7) % 97) as f64 / 97.0 - 0.5,
        ((i * 17 + 3) % 89) as f64 / 89.0 - 0.5,
    )
}

fn fnv1a64(values: &[Complex64]) -> u64 {
    fnv1a64_bytes(values.iter().flat_map(|v| {
        v.re.to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(v.im.to_bits().to_le_bytes())
    }))
}

/// [`fnv1a64`] over `f32` values: four little-endian bytes per part.
fn fnv1a64_f32(values: &[Complex<f32>]) -> u64 {
    fnv1a64_bytes(values.iter().flat_map(|v| {
        v.re.to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(v.im.to_bits().to_le_bytes())
    }))
}

fn fnv1a64_bytes(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(len, forward hash, inverse hash)`.
const GOLDEN_1D: [(usize, u64, u64); 7] = [
    (1, 0xe77c_9679_9677_2d90, 0xe77c_9679_9677_2d90),
    (2, 0x8deb_5aa6_8f0b_2117, 0x8309_a561_99e4_6c97),
    (4, 0x12b8_99c8_83e9_b6e9, 0x4921_71da_1d8e_98c5),
    (8, 0x0364_7a2e_f8bb_bdcf, 0x5ba8_4bcb_6db9_4cc3),
    (32, 0xb8ec_4cb5_b31f_cacb, 0xa6b1_101d_74a6_2e5d),
    (128, 0x3703_2e30_7291_0321, 0x5ea1_7076_14fd_5c39),
    (256, 0x4af4_0a7c_8000_9960, 0x832c_601a_5399_00d7),
];

/// `(rows, cols, forward hash, inverse hash)`.
const GOLDEN_2D: [(usize, usize, u64, u64); 4] = [
    (8, 16, 0x78bc_d128_6d9d_5796, 0xc815_ab41_4d87_4919),
    (16, 8, 0xdd8b_9203_d452_d9ed, 0xf856_dc4c_5a9e_9f05),
    (1, 64, 0x546c_924f_cc83_9827, 0xaae0_1935_11d9_cfb2),
    (64, 1, 0x546c_924f_cc83_9827, 0xaae0_1935_11d9_cfb2),
];

#[test]
fn dense_1d_spectra_match_recorded_goldens() {
    for level in SimdLevel::available_levels() {
        for &(len, forward, inverse) in &GOLDEN_1D {
            let plan = FftPlan::with_simd_level(len, level);
            let input: Vec<Complex64> = (0..len).map(sample).collect();
            let mut spectrum = input.clone();
            plan.forward(&mut spectrum);
            let mut back = input;
            plan.inverse(&mut back);
            assert_eq!(
                (fnv1a64(&spectrum), fnv1a64(&back)),
                (forward, inverse),
                "1-D len {len} at {level:?}: got ({:#018x}, {:#018x})",
                fnv1a64(&spectrum),
                fnv1a64(&back),
            );
        }
    }
}

#[test]
fn dense_2d_spectra_match_recorded_goldens() {
    for level in SimdLevel::available_levels() {
        for &(rows, cols, forward, inverse) in &GOLDEN_2D {
            let plan = Fft2Plan::with_simd_level(rows, cols, level);
            let field = Array2::from_fn(rows, cols, |r, c| sample(r * cols + c));
            let spectrum = plan.forward(&field);
            let back = plan.inverse(&field);
            assert_eq!(
                (fnv1a64(spectrum.as_slice()), fnv1a64(back.as_slice())),
                (forward, inverse),
                "2-D {rows}x{cols} at {level:?}: got ({:#018x}, {:#018x})",
                fnv1a64(spectrum.as_slice()),
                fnv1a64(back.as_slice()),
            );
        }
    }
}

/// `(rows, cols, forward hash, inverse hash, unnormalised inverse hash)`.
const GOLDEN_2D_WINDOWS: [(usize, usize, u64, u64, u64); 5] = [
    (
        32,
        32,
        0x9189f3f3a9074d35,
        0xeae7ca7c432dc152,
        0xd7c2a55b6b592c0d,
    ),
    (
        64,
        64,
        0x23aaf1c85507e1a8,
        0xfd42238269b96506,
        0x38b8c3e27089bd34,
    ),
    (
        128,
        128,
        0xc6d3295f494a53ce,
        0xb0e90686bac47074,
        0x1d2bc5edc0adf9a2,
    ),
    (
        256,
        64,
        0xb856307ee7761314,
        0xdd27d40cd450fe7d,
        0x980698d644ff25d5,
    ),
    (
        64,
        256,
        0x6d67f8516f4bb46a,
        0xfd085afc1a710e48,
        0x09ba43e5cfe922d9,
    ),
];

#[test]
fn window_sized_2d_spectra_match_recorded_goldens() {
    for level in SimdLevel::available_levels() {
        for &(rows, cols, forward, inverse, unnormalized) in &GOLDEN_2D_WINDOWS {
            let plan = Fft2Plan::with_simd_level(rows, cols, level);
            let field = Array2::from_fn(rows, cols, |r, c| sample(r * cols + c));
            let transforms: [fn(&Fft2Plan, &mut ptycho_fft::CArray2); 3] = [
                Fft2Plan::forward_mut,
                Fft2Plan::inverse_mut,
                Fft2Plan::inverse_unnormalized_mut,
            ];
            let hashes = transforms.map(|transform| {
                let mut out = field.clone();
                transform(&plan, &mut out);
                fnv1a64(out.as_slice())
            });
            assert_eq!(
                hashes,
                [forward, inverse, unnormalized],
                "2-D {rows}x{cols} at {level:?}: got [{:#018x}, {:#018x}, {:#018x}]",
                hashes[0],
                hashes[1],
                hashes[2],
            );
        }
    }
}

/// `(rows, cols, forward hash, inverse hash, unnormalised inverse hash)` of
/// the `f32` plans.
const GOLDEN_2D_WINDOWS_F32: [(usize, usize, u64, u64, u64); 5] = [
    (
        32,
        32,
        0xcbb054b236dfb468,
        0x3d34839377a3bfe1,
        0xb3fafae9ba717f48,
    ),
    (
        64,
        64,
        0x4995cdad77355c81,
        0x9e61ba557d2cc569,
        0x0e8b3bebbe715135,
    ),
    (
        128,
        128,
        0x2d12ad18aca4c15e,
        0xbb17c9b0015c0864,
        0x30136edeced7df7e,
    ),
    (
        256,
        64,
        0x4433e11b8bb9cd5a,
        0x2713d7cf94a83cb0,
        0xe97944ab547cab4a,
    ),
    (
        64,
        256,
        0x3172090b41e3d146,
        0x57702d42832702d4,
        0x56e340183c4a8ae6,
    ),
];

#[test]
fn window_sized_f32_spectra_match_recorded_goldens() {
    for level in SimdLevel::available_levels() {
        for &(rows, cols, forward, inverse, unnormalized) in &GOLDEN_2D_WINDOWS_F32 {
            let plan = Fft2Plan::<f32>::with_simd_level(rows, cols, level);
            let field: Array2<Complex<f32>> =
                Array2::from_fn(rows, cols, |r, c| Complex::narrow(sample(r * cols + c)));
            type Transform = fn(&Fft2Plan<f32>, &mut Array2<Complex<f32>>);
            let transforms: [Transform; 3] = [
                Fft2Plan::forward_mut,
                Fft2Plan::inverse_mut,
                Fft2Plan::inverse_unnormalized_mut,
            ];
            let hashes = transforms.map(|transform| {
                let mut out = field.clone();
                transform(&plan, &mut out);
                fnv1a64_f32(out.as_slice())
            });
            assert_eq!(
                hashes,
                [forward, inverse, unnormalized],
                "f32 2-D {rows}x{cols} at {level:?}: got [{:#018x}, {:#018x}, {:#018x}]",
                hashes[0],
                hashes[1],
                hashes[2],
            );
        }
    }
}
