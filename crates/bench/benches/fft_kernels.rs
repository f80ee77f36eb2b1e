//! Micro-benchmark of the SIMD butterfly tiers:
//! `fft_simd/{scalar,sse2,avx2}_{256,1024}` — the same 2D in-place forward
//! transform pinned by `fft_2d/serial/*`, once per SIMD tier available on
//! the machine (all three are bit-identical; only the time differs, and
//! `fft_2d/serial/*` itself runs at the widest one). Absent tiers (`avx2`
//! on an SSE2-only host, both vector tiers off x86_64) simply emit no key.

use criterion::{criterion_group, criterion_main, Criterion};
use ptycho_array::Array2;
use ptycho_fft::fft2d::Fft2Plan;
use ptycho_fft::{Complex64, SimdLevel};
use std::time::Duration;

fn field(n: usize) -> Array2<Complex64> {
    Array2::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.3).sin(), (c as f64 * 0.7).cos())
    })
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

criterion_group!(benches, bench_fft_simd);
criterion_main!(benches);
