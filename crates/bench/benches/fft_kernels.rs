//! Micro-benchmarks for the SIMD butterfly tiers and the pruned partial-FFT
//! path (ISSUE 8). Two groups:
//!
//! * `fft_simd/{scalar,sse2,avx2}_{256,1024}` — the same 2D in-place forward
//!   transform pinned by `fft_2d/serial/*`, once per SIMD tier available on
//!   the machine (all three are bit-identical; only the time differs, and
//!   `fft_2d/serial/*` itself runs at the widest one). Absent tiers (`avx2`
//!   on an SSE2-only host, both vector tiers off x86_64) simply emit no key.
//! * `fft_partial/{dense,pruned_vs_dense}_{64,128,256}` — a dense
//!   `Fft2Plan` against a `PartialFft2Plan` with a centred `n/4`-square
//!   input support and a centred `n/2`-square output ROI, on a
//!   support-padded input (the workload the multislice entry/far-field
//!   pruning seams produce). The pair of keys makes the asymptotic win
//!   directly readable from the bench output.

use criterion::{criterion_group, criterion_main, Criterion};
use ptycho_array::{Array2, Rect};
use ptycho_fft::fft2d::Fft2Plan;
use ptycho_fft::{Complex64, PartialFft2Plan, SimdLevel};
use std::time::Duration;

fn field(n: usize) -> Array2<Complex64> {
    Array2::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.3).sin(), (c as f64 * 0.7).cos())
    })
}

/// A field that is exactly zero (positive zeros) outside the given support —
/// the shape the probe support-padding seam feeds the pruned entry plan.
fn supported_field(n: usize, support: &Rect) -> Array2<Complex64> {
    Array2::from_fn(n, n, |r, c| {
        if support.contains(r as i64, c as i64) {
            Complex64::new((r as f64 * 0.3).sin(), (c as f64 * 0.7).cos())
        } else {
            Complex64::ZERO
        }
    })
}

fn centred_square(n: usize, side: usize) -> Rect {
    let off = ((n - side) / 2) as i64;
    Rect::new(off, off, side as i64, side as i64)
}

fn bench_fft_simd(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_simd");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for &n in &[256usize, 1024] {
        let data = field(n);
        for level in SimdLevel::available_levels() {
            let plan = Fft2Plan::with_simd_level(n, n, level);
            let mut buf = data.clone();
            group.bench_function(format!("{}_{n}", level.label()), |b| {
                b.iter(|| {
                    buf.copy_from(&data);
                    plan.forward_mut(&mut buf);
                })
            });
        }
    }
    group.finish();
}

fn bench_fft_partial(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_partial");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for &n in &[64usize, 128, 256] {
        let support = centred_square(n, n / 4);
        let roi = centred_square(n, n / 2);
        let data = supported_field(n, &support);

        let dense = Fft2Plan::new(n, n);
        let mut buf = data.clone();
        group.bench_function(format!("dense_{n}"), |b| {
            b.iter(|| {
                buf.copy_from(&data);
                dense.forward_mut(&mut buf);
            })
        });

        let pruned = PartialFft2Plan::new(n, n)
            .with_input_support(support)
            .with_output_roi(roi);
        let mut scratch = pruned.make_scratch();
        group.bench_function(format!("pruned_vs_dense_{n}"), |b| {
            b.iter(|| {
                buf.copy_from(&data);
                pruned.forward_in_place(&mut buf, &mut scratch);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft_simd, bench_fft_partial);
criterion_main!(benches);
