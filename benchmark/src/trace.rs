//! In-memory spans, written once when the run ends.
//!
//! Spans are recorded only from the benchmark's own code, around the
//! public calls into each layer (choosing-metrics §4: spans inside the
//! program are a later change). The layer is the crate name, the prefix
//! of the span name.

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of the span that caused this one; `NO_PARENT` for a root.
pub type SpanId = i64;
pub const NO_PARENT: SpanId = -1;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one batch of rows (or one window) share this identifier.
    pub batch: u64,
}

/// Spans of one run, against one epoch so threads can be merged.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        batch: u64,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, batch });
        self.spans.len() as SpanId - 1
    }

    /// Time `f` as a span ending now.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, batch);
        out
    }

    /// Open a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, batch: u64) -> SpanId {
        let now = self.now();
        self.push(name, now, now, parent, batch)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Total duration in seconds of all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).sum::<u64>() as f64 / 1e9
    }

    /// Durations of all spans called `name`, in recording order.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans.iter().filter(move |s| s.name == name).map(|s| s.end_ns - s.start_ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON array of
    /// `{name,start_ns,end_ns,parent,batch}` objects.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            write!(
                line,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.batch
            )
            .expect("write to string");
            line.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("replay", NO_PARENT, 0);
        let a = t.push("basket.parse", 10, 14, root, 3);
        t.push("basket.parse", 20, 21, root, 4);
        t.close(root);
        assert_eq!((root, a), (0, 1));
        assert_eq!(t.total_s("basket.parse"), 5e-9);
        assert_eq!(t.durations_ns("basket.parse").collect::<Vec<_>>(), vec![4, 1]);
        assert_eq!(t.len(), 3);
    }
}
