//! In-place-API benchmark: the in-place 2D transforms (zero allocations)
//! against the by-value wrappers (one clone per call) — the ISSUE 4 win,
//! measured per size so a regression back to allocating transforms shows.
//!
//! Both variants time a forward/inverse *round trip* so the in-place buffer
//! stays numerically bounded across iterations and the comparison is
//! apples-to-apples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ptycho_array::Array2;
use ptycho_fft::fft2d::Fft2Plan;
use ptycho_fft::Complex64;
use std::time::Duration;

fn field(n: usize) -> Array2<Complex64> {
    Array2::from_fn(n, n, |r, c| {
        Complex64::new((r as f64 * 0.3).sin(), (c as f64 * 0.7).cos())
    })
}

fn bench_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_workspace");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for &n in &[64usize, 128, 256] {
        let plan = Fft2Plan::new(n, n);
        let data = field(n);

        group.bench_with_input(BenchmarkId::new("roundtrip_by_value", n), &n, |b, _| {
            b.iter(|| plan.inverse(&plan.forward(&data)))
        });

        let mut buf = data.clone();
        group.bench_with_input(BenchmarkId::new("roundtrip_in_place", n), &n, |b, _| {
            b.iter(|| {
                plan.forward_mut(&mut buf);
                plan.inverse_mut(&mut buf);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workspace);
criterion_main!(benches);
