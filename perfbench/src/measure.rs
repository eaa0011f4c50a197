//! Timing, the span recorder of the traced run, and the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs `f` and returns its result with its wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A recorded span: one timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The operation (query or write) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store, written out once when the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a span timed elsewhere against [`Spans::origin`].
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
        self.spans.len() - 1
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, op)
    }

    pub fn close(&mut self, id: usize) -> Duration {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(span.nanos())
    }

    /// Records `f` as a span and returns its result with the span's length.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent, op);
        let r = f();
        (r, self.close(id))
    }

    /// Median self time per span name, in µs: a span's length minus the
    /// part its children cover (children never overlap one another).
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let self_us = s.nanos().saturating_sub(*c) as f64 / 1e3;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => v.push(self_us),
                None => by_name.push((s.name, vec![self_us])),
            }
        }
        by_name.into_iter().map(|(n, v)| (n, median(&v), v.len())).collect()
    }

    /// Writes every span as one JSON document; a root span has no
    /// `parent` key.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map(|p| format!(",\"parent\":{p}")).unwrap_or_default();
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"op\":{}{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// Outcome of one run: operation counts, wrong answers and named metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one operation; `Err` counts as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("operation failed: {e}");
                }
                None
            }
        }
    }

    /// Records a wrong answer; the run is reported as incorrect.
    pub fn wrong(&mut self, why: String) {
        if self.wrong.len() < 5 {
            eprintln!("wrong answer: {why}");
        }
        self.wrong.push(why);
    }

    /// The first metric whose value is not a finite number, if any.
    pub fn non_finite(&self) -> Option<&'static str> {
        self.metrics.iter().find(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| *n)
    }

    /// Prints the metrics for people, then the one-line JSON result.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<40} {value:>14.4} {unit}");
        }
        let ratio =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!("  error_ratio {ratio} ({} of {} operations)", self.failed, self.attempted);
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Resident high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
