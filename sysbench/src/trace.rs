//! Spans recorded by the benchmark's own code around its calls into the
//! system under test.
//!
//! Spans live in memory until the workload ends, are then written as one
//! `trace-<workload>.jsonl` (one JSON object per line), and the per-layer
//! span numbers are aggregated from exactly these records. With tracing
//! off [`Tracer::span`] is a single branch.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `net.send`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Checkpoint window the span belongs to: spans of the requests that
    /// share a commit share this id.
    pub window: u64,
    /// Operations the span covers (requests sent, served or harvested).
    pub ops: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin (the benchmark's one clock).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span; returns its id for use as a `parent` (0 when off).
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        window: u64,
        ops: u32,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            window,
            ops,
        });
        self.spans.len() as u32
    }

    /// Reserves a root span whose end is filled in by [`Self::close`].
    pub fn open(&mut self, name: &'static str, start_ns: u64, window: u64) -> u32 {
        self.span(name, start_ns, start_ns, 0, window, 0)
    }

    pub fn close(&mut self, id: u32, end_ns: u64, ops: u32) {
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_ns = end_ns;
            s.ops = ops;
        }
    }

    /// Total duration and operation count of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, ops), s| {
                (ns + (s.end_ns - s.start_ns), ops + s.ops as u64)
            })
    }

    /// Ascending durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Writes the spans as JSON lines (`id` is the 1-based line number).
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"window\":{},\"ops\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.window,
                s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_aggregates_by_name() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("net.send", 0, 10, 0, 0, 1), 0);
        assert!(off.spans.is_empty());

        let mut t = Tracer::new(true);
        let root = t.open("window", 0, 7);
        let a = t.span("net.send", 0, 10, root, 7, 32);
        t.span("net.send", 20, 50, root, 7, 32);
        t.span("kernel.serve", 10, 20, root, 7, 32);
        t.close(root, 50, 64);
        assert_eq!((root, a), (1, 2));
        assert_eq!(t.total("net.send"), (40, 64));
        assert_eq!(t.durations("net.send"), vec![10, 30]);
        assert_eq!(
            t.spans[0],
            Span {
                name: "window",
                start_ns: 0,
                end_ns: 50,
                parent: 0,
                window: 7,
                ops: 64
            }
        );
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new(true);
        let root = t.open("window", 5, 1);
        t.span("net.send", 5, 9, root, 1, 2);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":2,\"name\":\"net.send\",\"start_ns\":5,\"end_ns\":9,\"parent\":1,\"window\":1,\"ops\":2}"
        );
    }
}
