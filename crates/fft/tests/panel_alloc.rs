//! The row pass's panels keep their split planes on the stack: a 2-D
//! transform allocates nothing, fused (a factor read in place from a wider
//! plane included) or in place, at every tier and both precisions, and
//! neither does a 1-D plan (a one-row partial panel).

use ptycho_alloc::CountingAllocator;
use ptycho_array::Array2;
use ptycho_fft::fft2d::{Factor, Fft2Plan};
use ptycho_fft::{Complex, Complex64, FftPlan, Real, SimdLevel};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn field<R: Real>(rows: usize, cols: usize) -> Array2<Complex<R>> {
    Array2::from_fn(rows, cols, |r, c| {
        Complex::narrow(Complex64::new(
            ((r * 7 + c) as f64 * 0.3).sin(),
            (c as f64 * 0.7).cos(),
        ))
    })
}

/// Allocation events of every transform entry point of an `n × n` plan and
/// a 1-D plan as long as the longest row a panel takes, at `level`, run on
/// buffers made beforehand.
fn allocations<R: Real>(n: usize, level: SimdLevel) -> u64 {
    let plan = Fft2Plan::<R>::with_simd_level(n, n, level);
    let line = FftPlan::<R>::with_simd_level(2048, level);
    let (source, factor, wide) = (field::<R>(n, n), field::<R>(n, n), field::<R>(n, n + 1));
    let mut out = field::<R>(n, n);
    let mut row = field::<R>(1, 2048);
    let before = ALLOC.allocations();
    for f in [
        None,
        Some(Factor::mul(factor.as_slice())),
        Some(Factor::mul_conj(factor.as_slice())),
        Some(Factor::mul(&wide.as_slice()[1..]).with_stride(n + 1)),
    ] {
        plan.forward_fused(&mut out, source.as_slice(), f);
        plan.inverse_unnormalized_fused(&mut out, source.as_slice(), f);
    }
    plan.forward_mut(&mut out);
    plan.inverse_mut(&mut out);
    plan.inverse_unnormalized_mut(&mut out);
    line.forward(row.as_mut_slice());
    line.inverse(row.as_mut_slice());
    ALLOC.allocations() - before
}

// A single #[test] on purpose: the harness runs tests concurrently, and a
// second test allocating in parallel would corrupt the global counter.
#[test]
fn panel_transforms_allocate_nothing() {
    for level in SimdLevel::available_levels() {
        for n in [1, 2, 32, 128] {
            assert_eq!(allocations::<f32>(n, level), 0, "f32 {n}x{n} at {level:?}");
            assert_eq!(allocations::<f64>(n, level), 0, "f64 {n}x{n} at {level:?}");
        }
    }
}
