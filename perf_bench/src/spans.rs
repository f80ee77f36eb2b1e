//! Benchmark-side spans: `{name, workload, start_ns, end_ns, parent}` around
//! every call the traced run makes into a layer, kept in memory and written
//! out once at the end. Spans inside the program are a later change; these
//! are recorded from the benchmark's own files only.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under the innermost open one.
    pub fn leaf(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        });
    }

    /// Runs `f` inside a span; spans recorded by `f` become its children.
    /// Returns `f`'s value and the span's duration in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans[index].end_ns = self.ns(end);
        (value, (end - start).as_secs_f64())
    }

    /// Micro-timing: after ~10 ms of warm-up calls, `samples` spans of `name`,
    /// each covering enough back-to-back calls of `f` to last ~200 µs.
    /// Returns the median seconds per call.
    pub fn sample(&mut self, name: &str, samples: usize, mut f: impl FnMut()) -> f64 {
        let warm_up = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || (warm_up.elapsed() < Duration::from_millis(10) && calls < 100_000) {
            f();
            calls += 1;
        }
        let once = (warm_up.elapsed() / calls).max(Duration::from_nanos(2));
        let reps = (200_000 / once.as_nanos()).clamp(1, 100_000) as u32;
        let mut per_call = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            let end = Instant::now();
            self.leaf(name, start, end);
            per_call.push((end - start).as_secs_f64() / f64::from(reps));
        }
        median(&per_call)
    }

    /// Turns progress stamps (seconds since `start`) into one span per gap.
    pub fn gaps(&mut self, name: &str, start: Instant, stamps_s: &[f64]) {
        for pair in stamps_s.windows(2) {
            self.leaf(
                name,
                start + Duration::from_secs_f64(pair[0]),
                start + Duration::from_secs_f64(pair[1]),
            );
        }
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                span.name,
                self.workload,
                span.start_ns,
                span.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    /// Prints every span path with its call count, total time, share of its
    /// parent, and the parent's self time (duration its children do not
    /// cover) as the unexplained residual.
    pub fn print_tree(&self) {
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let path = match span.parent {
                Some(p) => format!("{}/{}", paths[p], span.name),
                None => span.name.clone(),
            };
            paths.push(path);
        }
        // path -> (count, total ns, ns covered by children)
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, path) in self.spans.iter().zip(&paths) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let row = rows.entry(path).or_default();
            row.0 += 1;
            row.1 += duration;
            if let Some(p) = span.parent {
                rows.entry(&paths[p]).or_default().2 += duration;
            }
        }
        println!("  span tree ({} spans):", self.spans.len());
        for (path, &(count, total, covered)) in &rows {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let share = path
                .rsplit_once('/')
                .and_then(|(parent, _)| rows.get(parent))
                .map(|&(_, parent_total, _)| total as f64 / parent_total.max(1) as f64);
            let mut line = format!(
                "    {:indent$}{name:<w$} n={count:<5} {:>10.6} s",
                "",
                total as f64 * 1e-9,
                indent = 2 * depth,
                w = 44usize.saturating_sub(2 * depth),
            );
            if let Some(share) = share {
                line.push_str(&format!("  {:>5.1}% of parent", 100.0 * share));
            }
            if covered > 0 {
                let residual = 1.0 - covered as f64 / total.max(1) as f64;
                line.push_str(&format!("  unexplained {:>5.1}%", 100.0 * residual));
                if residual > 0.15 {
                    line.push_str("  WARNING: under-explained by more than 15%");
                }
            }
            println!("{line}");
        }
    }
}
