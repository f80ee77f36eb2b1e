//! Micro-benchmarks for the FFT substrate (the kernel whose N log N cost the
//! paper identifies as the source of super-linear scaling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptycho_array::Array2;
use ptycho_fft::fft2d::Fft2Plan;
use ptycho_fft::{dft, Complex64, FftPlan};
use std::time::Duration;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn field(n: usize) -> Array2<Complex64> {
    Array2::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.3).sin(), (c as f64 * 0.7).cos())
    })
}

fn bench_fft_1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_1d");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for &n in &[256usize, 1024, 4096] {
        let plan = FftPlan::new(n);
        let input = signal(n);
        group.bench_with_input(BenchmarkId::new("radix2_plan", n), &n, |b, _| {
            b.iter(|| {
                let mut data = input.clone();
                plan.forward(&mut data);
                data
            })
        });
    }
    // The naive reference, to show the gap the fast transform closes.
    let input = signal(256);
    group.bench_function("naive_dft_256", |b| b.iter(|| dft::dft(&input)));
    group.finish();
}

fn bench_fft_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_2d");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    // The *hot-path* call the solvers make: the in-place transform (a fresh
    // copy of the input per iteration, like a propagation step working on a
    // wave buffer). The by-value wrappers are pinned separately in
    // benches/fft_workspace.rs.
    for &n in &[64usize, 128, 256] {
        let plan = Fft2Plan::new(n, n);
        let data = field(n);
        let mut buf = data.clone();
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| {
                buf.copy_from(&data);
                plan.forward_mut(&mut buf);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft_1d, bench_fft_2d);
criterion_main!(benches);
