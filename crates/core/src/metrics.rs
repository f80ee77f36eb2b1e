//! Runtime and scaling metrics.
//!
//! These are the quantities the paper's tables and figures report: runtimes in
//! minutes for a fixed iteration count and strong-scaling efficiency relative
//! to the single-node run.

/// Strong-scaling efficiency in percent, as defined in the paper (Tables
/// II/III): the speedup relative to the baseline configuration divided by the
/// ideal speedup from the extra GPUs, times 100.
///
/// `baseline` and `scaled` are `(gpus, runtime)` pairs in consistent units.
pub fn strong_scaling_efficiency(baseline: (usize, f64), scaled: (usize, f64)) -> f64 {
    let (base_gpus, base_time) = baseline;
    let (gpus, time) = scaled;
    assert!(base_gpus > 0 && gpus > 0, "GPU counts must be positive");
    assert!(base_time > 0.0 && time > 0.0, "runtimes must be positive");
    let speedup = base_time / time;
    let ideal = gpus as f64 / base_gpus as f64;
    100.0 * speedup / ideal
}

/// Converts seconds to the minutes used in the paper's tables.
pub fn seconds_to_minutes(seconds: f64) -> f64 {
    seconds / 60.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_linear_scaling_is_100() {
        // 4x the GPUs, 4x faster.
        let eff = strong_scaling_efficiency((6, 400.0), (24, 100.0));
        assert!((eff - 100.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_super_linear_exceeds_100() {
        // The paper's Table III: 6 GPUs at 5543 min vs 4158 GPUs at 2.2 min is
        // 364% efficiency.
        let eff = strong_scaling_efficiency((6, 5543.0), (4158, 2.2));
        assert!((eff - 363.6).abs() < 2.0, "got {eff}");
    }

    #[test]
    fn efficiency_sub_linear_below_100() {
        let eff = strong_scaling_efficiency((6, 463.3), (126, 95.3));
        assert!(eff < 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_runtime_panics() {
        let _ = strong_scaling_efficiency((6, 0.0), (12, 1.0));
    }

    #[test]
    fn seconds_to_minutes_conversion() {
        assert_eq!(seconds_to_minutes(120.0), 2.0);
    }
}
