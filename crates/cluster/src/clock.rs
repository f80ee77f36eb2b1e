//! Per-rank simulated clocks and runtime breakdowns.
//!
//! Fig. 7b of the paper breaks reconstruction runtime into *computation*,
//! *GPU waiting* and *communication* time. The threaded runtime measures the
//! first two with real wall-clock timers and charges the third from the
//! topology's analytic transfer times (a thread channel is far faster than
//! InfiniBand, so measuring it directly would be meaningless).

use std::time::Instant;

/// A breakdown of where a rank's time went, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Time spent in gradient / update computation.
    pub compute: f64,
    /// Time spent blocked waiting for peers (load imbalance).
    pub wait: f64,
    /// Time charged for moving bytes between ranks.
    pub communication: f64,
}

impl TimeBreakdown {
    /// Total of all categories.
    pub fn total(&self) -> f64 {
        self.compute + self.wait + self.communication
    }

    /// Elementwise sum of two breakdowns.
    pub fn merge(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute: self.compute + other.compute,
            wait: self.wait + other.wait,
            communication: self.communication + other.communication,
        }
    }

    /// The elementwise maximum — the critical-path view across ranks.
    pub fn max_per_component(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute: self.compute.max(other.compute),
            wait: self.wait.max(other.wait),
            communication: self.communication.max(other.communication),
        }
    }
}

/// A per-rank clock accumulating a [`TimeBreakdown`].
#[derive(Debug)]
pub struct RankClock {
    breakdown: TimeBreakdown,
    /// Deterministic integer mirror of the analytic communication charges,
    /// in nanoseconds. Unlike the wall-clock compute/wait measurements this
    /// is a pure function of the message sequence, so telemetry stamps taken
    /// from it are bit-identical across identical seeded runs.
    comm_ns: u64,
}

impl Default for RankClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RankClock {
    /// Creates a clock with all categories at zero.
    pub fn new() -> Self {
        Self {
            breakdown: TimeBreakdown::default(),
            comm_ns: 0,
        }
    }

    /// Runs `f`, charging its wall-clock duration to *compute* time.
    pub fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.breakdown.compute += start.elapsed().as_secs_f64();
        out
    }

    /// Runs `f` (typically a blocking receive), charging its wall-clock
    /// duration to *wait* time.
    pub fn wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.breakdown.wait += start.elapsed().as_secs_f64();
        out
    }

    /// Charges `seconds` of analytic communication time.
    pub fn charge_communication(&mut self, seconds: f64) {
        self.breakdown.communication += seconds;
        self.comm_ns += (seconds * 1e9) as u64;
    }

    /// Cumulative analytic communication time in integer nanoseconds — the
    /// deterministic clock telemetry events are stamped with.
    pub fn comm_ns(&self) -> u64 {
        self.comm_ns
    }

    /// The accumulated breakdown.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Resets all categories to zero.
    pub fn reset(&mut self) {
        self.breakdown = TimeBreakdown::default();
        self.comm_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_and_wait_are_measured() {
        let mut clock = RankClock::new();
        let value = clock.compute(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(value, 42);
        clock.wait(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let b = clock.breakdown();
        assert!(b.compute >= 0.004, "compute={}", b.compute);
        assert!(b.wait >= 0.004, "wait={}", b.wait);
        assert_eq!(b.communication, 0.0);
    }

    #[test]
    fn charges_accumulate() {
        let mut clock = RankClock::new();
        clock.charge_communication(1.5);
        clock.charge_communication(0.5);
        let b = clock.breakdown();
        assert_eq!(b.communication, 2.0);
        assert_eq!(b.total(), 2.0);
    }

    #[test]
    fn reset_clears() {
        let mut clock = RankClock::new();
        clock.charge_communication(1.0);
        clock.reset();
        assert_eq!(clock.breakdown(), TimeBreakdown::default());
    }

    #[test]
    fn merge_and_max() {
        let a = TimeBreakdown {
            compute: 1.0,
            wait: 2.0,
            communication: 3.0,
        };
        let b = TimeBreakdown {
            compute: 4.0,
            wait: 1.0,
            communication: 0.5,
        };
        let sum = a.merge(&b);
        assert_eq!(sum.compute, 5.0);
        assert_eq!(sum.total(), 11.5);
        let max = a.max_per_component(&b);
        assert_eq!(max.compute, 4.0);
        assert_eq!(max.wait, 2.0);
        assert_eq!(max.communication, 3.0);
    }
}
