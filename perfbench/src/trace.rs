//! Spans recorded by the benchmark around its own calls into the program.
//!
//! A span has a name (`<layer>.<call>`), a start and an end on both the
//! wall clock and the thread-CPU clock, the span that caused it, and the
//! op it belongs to. Spans stay in memory until the run ends; self times
//! (a span's duration minus the part its children cover) are derived
//! from them afterwards.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::clock;

/// The op id of spans outside any op (set-up work).
pub const SETUP: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `minijs.eval`.
    pub name: &'static str,
    /// The op this span belongs to ([`SETUP`] for set-up spans).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall-clock start and end, nanoseconds since the tracer started.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Thread-CPU time spent inside the span, nanoseconds.
    pub cpu_ns: u64,
    cpu_start_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for the calling thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_ns: 0,
            cpu_start_ns: clock::thread_cpu().as_nanos() as u64,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, returning it.
    pub fn end(&mut self) -> &Span {
        let cpu = clock::thread_cpu().as_nanos() as u64;
        let wall = self.epoch.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[id];
        span.end_ns = wall;
        span.cpu_ns = cpu - span.cpu_start_ns;
        span
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall durations (ms) of every span called `name`.
    pub fn wall_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.wall_ns() as f64 / 1e6).collect()
    }

    /// Total wall time (ms) of every span called `name`.
    pub fn total_wall_ms(&self, name: &str) -> f64 {
        self.wall_ms(name).iter().sum()
    }

    /// Self wall time in nanoseconds per layer (the span name up to its
    /// first `.`), summed over every span inside an op.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.wall_ns();
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            if span.op == SETUP {
                continue;
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0) += span.wall_ns().saturating_sub(*children);
        }
        layers
    }

    /// The share of op wall time covered by the op spans' direct
    /// children: how much of an op the trace attributes to a layer.
    pub fn attributed_share(&self) -> f64 {
        let mut op_ns = 0u64;
        let mut covered_ns = 0u64;
        for span in &self.spans {
            match span.parent {
                None if span.op != SETUP => op_ns += span.wall_ns(),
                Some(parent) if self.spans[parent].parent.is_none() && span.op != SETUP => {
                    covered_ns += span.wall_ns()
                }
                _ => {}
            }
        }
        crate::stats::ratio(covered_ns as f64, op_ns as f64)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let op = if s.op == SETUP { "null".to_string() } else { s.op.to_string() };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cpu_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.begin("harness.op", 0);
        t.span("minijs.eval", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end();
        let op = t.spans()[0].wall_ns();
        let child = t.spans()[1].wall_ns();
        let layers = t.self_ns_by_layer();
        assert_eq!(layers["harness"], op - child);
        assert_eq!(layers["minijs"], child);
        assert!(t.attributed_share() > 0.5 && t.attributed_share() <= 1.0);
    }
}
