//! The harness's own span recorder.
//!
//! Spans are recorded in the benchmark's code, around each call it makes
//! into a layer — never inside the program. They stay in memory while the
//! run measures and are written as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Every span of one request carries the request's number.
    pub request: u64,
    /// `layer.call`, e.g. `gate.recv`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are unique across threads because each
/// tracer allocates from its own range.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread `lane`, timing against `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer { epoch, next_id: (lane << 40) + 1, spans: Vec::new() }
    }

    /// Reserves an id, so a parent can be named before it is recorded.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records the span `id` (from [`Tracer::reserve`]).
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { id, parent, request, name, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Times `f` as a child of `parent` and records it.
    pub fn call<T>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, request, name, start, end);
        (out, end.duration_since(start).as_nanos() as u64)
    }
}

/// Writes spans as JSON lines, ordered by start time.
pub fn write_jsonl(path: &Path, mut spans: Vec<Span>) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
