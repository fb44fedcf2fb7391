//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions. Nothing inside the service is instrumented:
//! a span covers exactly one call made from this crate.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call: the layer and function it entered, when, and the
/// span that caused it (`parent`, 0 for none). Spans of one request
/// share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub layer: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer. When `on` is false, recording is skipped
/// entirely; timestamps the caller needs anyway are still taken.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    /// Distinguishes span ids across the per-thread tracers.
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Self { on, epoch, thread, next: 0, spans: Vec::new() }
    }

    /// A child tracer for another thread, sharing the epoch.
    pub fn fork(&self, thread: u64) -> Self {
        Self::new(self.on, self.epoch, thread)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; returns its id (0 when off).
    pub fn record(
        &mut self,
        layer: &'static str,
        op: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, req, layer, op, start_ns, end_ns });
        id
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations (ns) of every span of `layer`/`op`.
    pub fn durations(&self, layer: &str, op: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.layer == layer && s.op == op).map(Span::dur_ns).collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tlayer\top\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.layer, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
