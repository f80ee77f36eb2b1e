//! Order statistics and the pass/fail ledger every workload keeps.

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Operations attempted and failed. A failed correctness check, a job that
/// does not end `Completed` and a refused submit each count as a failed
/// operation and are printed with the workload they belong to.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one attempted operation; `Err` makes it a failed one.
    pub fn attempt<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(error) => {
                self.fail(format!("{what}: {error}"));
                None
            }
        }
    }

    /// A correctness check over operations already counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
