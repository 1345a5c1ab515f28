//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans wrap the benchmark's calls into each layer; nothing is
//! recorded inside the program. Spans stay in memory and are written as
//! ndjson (one object per span) when the run ends. Spans of one request
//! line or study share a `trace` id.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    trace: u64,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// A single-threaded span buffer. Threads each own one and the buffers
/// are merged at the end; ids embed the owner so they stay unique.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    owner: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, owner: u64) -> Self {
        Self {
            epoch,
            owner,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from; buffers merged into one
    /// trace must share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id (0 is "no parent").
    pub fn open(&mut self, name: &'static str, trace: u64, parent: u64) -> u64 {
        let id = (self.owner << 40) | (self.spans.len() as u64 + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the span `open` returned and gives its duration in ns.
    pub fn close(&mut self, id: u64) -> u64 {
        let end_ns = self.now_ns();
        let index = (id & ((1 << 40) - 1)) as usize - 1;
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, trace, parent);
        let out = f();
        (out, self.close(id))
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one ndjson line, in start order.
    pub fn write_ndjson(&self, path: &std::path::Path) -> Result<(), String> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 96);
        for s in &spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Times `f` only when a tracer is present.
pub fn maybe<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    trace: u64,
    parent: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match tracer {
        Some(t) => t.time(name, trace, parent, f),
        None => (f(), 0),
    }
}
