//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span has a name, a start, an end, a parent and a frame id; spans of one
//! frame share the frame id. A span's self time is its duration minus the
//! part of it its children cover, and summing self times by name gives the
//! per-request stage ledger.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start: u64,
    /// End, ns since the log's epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The frame the work belongs to.
    pub frame: u32,
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    /// Nanoseconds since the log's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, frame: u32) -> u32 {
        self.spans.push(Span { name, start, end, parent, frame });
        (self.spans.len() - 1) as u32
    }

    /// Starts a span that [`close`](Self::close) ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, frame: u32) -> u32 {
        let t = self.now();
        self.push(name, t, t, parent, frame)
    }

    /// Ends a span started with [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        let t = self.now();
        self.spans[id as usize].end = t;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, frame: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, frame);
        out
    }

    /// An empty log on the same clock, for another thread to fill.
    pub fn fork(&self) -> SpanLog {
        SpanLog { epoch: self.epoch, spans: Vec::new() }
    }

    /// Appends a forked log's spans, keeping their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(
            other
                .spans
                .into_iter()
                .map(|s| Span { parent: if s.parent == ROOT { ROOT } else { s.parent + base }, ..s }),
        );
    }

    /// Total self time per span name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"frame\":{}}}",
                s.name, s.start, s.end, s.frame
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::default();
        let root = log.push("frame", 0, 100, ROOT, 0);
        log.push("a", 10, 40, root, 0);
        log.push("b", 50, 60, root, 0);
        let t = log.self_times();
        assert_eq!(t["frame"], 60);
        assert_eq!(t["a"], 30);
        assert_eq!(t["b"], 10);
    }
}
