//! Convergence tracking for the reconstruction cost `F(V)`.
//!
//! Fig. 9 of the paper plots the cost function against iteration for three
//! communication frequencies; this module holds the per-iteration cost series
//! and the summary statistics the experiment harnesses report.

/// The per-iteration history of the global cost `F(V)` (Eqn. 1).
#[derive(Clone, Debug, PartialEq)]
pub struct CostHistory {
    costs: Vec<f64>,
}

impl CostHistory {
    /// Wraps a per-iteration cost series.
    pub fn from_costs(costs: Vec<f64>) -> Self {
        Self { costs }
    }

    /// The raw per-iteration costs.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Number of recorded iterations.
    pub fn iterations(&self) -> usize {
        self.costs.len()
    }

    /// True when no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// The first recorded cost (`0.0` when empty).
    pub fn initial_cost(&self) -> f64 {
        self.costs.first().copied().unwrap_or(0.0)
    }

    /// The last recorded cost (`0.0` when empty).
    pub fn final_cost(&self) -> f64 {
        self.costs.last().copied().unwrap_or(0.0)
    }

    /// The total relative reduction `1 − final/initial`, in `[0, 1]` for a
    /// converging run.
    pub fn relative_reduction(&self) -> f64 {
        let initial = self.initial_cost();
        if initial == 0.0 {
            0.0
        } else {
            1.0 - self.final_cost() / initial
        }
    }

    /// True when the cost never increases from one iteration to the next
    /// (within a small relative tolerance for floating-point noise).
    pub fn is_monotonically_decreasing(&self) -> bool {
        self.costs
            .windows(2)
            .all(|w| w[1] <= w[0] * (1.0 + 1e-9) + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_is_safe() {
        let h = CostHistory::from_costs(vec![]);
        assert!(h.is_empty());
        assert_eq!(h.initial_cost(), 0.0);
        assert_eq!(h.final_cost(), 0.0);
        assert_eq!(h.relative_reduction(), 0.0);
        assert!(h.is_monotonically_decreasing());
    }

    #[test]
    fn summary_statistics() {
        let h = CostHistory::from_costs(vec![10.0, 5.0, 2.5, 2.0]);
        assert_eq!(h.iterations(), 4);
        assert_eq!(h.initial_cost(), 10.0);
        assert_eq!(h.final_cost(), 2.0);
        assert!((h.relative_reduction() - 0.8).abs() < 1e-12);
        assert!(h.is_monotonically_decreasing());
    }

    #[test]
    fn detects_non_monotone_series() {
        let h = CostHistory::from_costs(vec![10.0, 12.0, 8.0]);
        assert!(!h.is_monotonically_decreasing());
    }
}
