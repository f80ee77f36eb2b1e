//! A small metrics registry: counters, gauges, and log2-bucketed
//! histograms, rendered as Prometheus-style text.
//!
//! The registry is deliberately not on any steady-state path: producers keep
//! their own plain counters (e.g. `ReliableStats`, the job service's
//! bookkeeping) and a snapshot call assembles a registry on demand. `BTreeMap`
//! storage makes every snapshot deterministically ordered.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A log2-bucketed histogram over non-negative integer observations.
///
/// Bucket `i` covers values whose bit length is `i` (bucket 0 holds the
/// value 0), i.e. upper bounds 0, 1, 3, 7, 15, … — coarse, allocation-free,
/// and good enough for queue depths and latency-style distributions.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros() as usize).min(63);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in 0..=1).
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(idx);
            }
        }
        Self::bucket_upper(63)
    }

    /// Inclusive upper bound of bucket `idx`: 0 for bucket 0, else
    /// `2^idx - 1` (all values of bit length `idx`).
    fn bucket_upper(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Iterates `(inclusive_upper_bound, count)` over non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (Self::bucket_upper(idx), n))
    }
}

/// A named collection of counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn inc_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Installs a pre-populated histogram under `name` (used when a producer
    /// maintained the histogram itself).
    pub fn set_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Prometheus-style text exposition: `# TYPE` headers, counters and
    /// gauges as plain samples, histograms as cumulative `_bucket{le=…}`
    /// samples plus `_sum`/`_count`. Deterministically ordered.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0;
            for (upper, count) in histogram.buckets() {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
            let _ = writeln!(out, "{name}_sum {}", histogram.sum());
            let _ = writeln!(out, "{name}_count {}", histogram.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 5, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 121);
        assert_eq!(h.quantile(0.0), 0);
        // p50 of 8 observations is the 4th smallest (2) -> bucket upper 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 lands in the last populated bucket (100 -> upper bound 127).
        assert_eq!(h.quantile(0.99), 127);
    }

    #[test]
    fn registry_snapshots_are_deterministic_and_complete() {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("b_total", 2);
        reg.inc_counter("a_total", 1);
        reg.set_gauge("depth", 3.5);
        let mut queue = Histogram::default();
        queue.observe(1);
        queue.observe(7);
        reg.set_histogram("queue", queue);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(
            text.find("a_total").unwrap() < text.find("b_total").unwrap(),
            "counters must be sorted"
        );
        assert!(text.contains("queue_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("queue_sum 8"));
        assert!(text.contains("depth 3.5"));
        assert_eq!(reg.counter("b_total"), Some(2));
        assert_eq!(reg.histogram("queue").unwrap().count(), 2);
    }
}
