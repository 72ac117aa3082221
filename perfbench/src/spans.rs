//! In-memory spans around the benchmark's calls into each layer,
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    kernel: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Identifies an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The spans of one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Spans::end).
    pub fn begin(&mut self, name: &'static str, kernel: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            kernel: kernel.to_string(),
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now();
    }

    /// Runs `f` inside a span and returns its result with its seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        kernel: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, kernel, parent);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"kernel\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.kernel, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
