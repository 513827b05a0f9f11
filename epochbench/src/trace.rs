//! Bench-side spans around each public call of the epoch path.
//!
//! Timing is always taken (the end-to-end metrics need the durations);
//! spans are only kept when tracing is on. Kept spans stay in memory
//! until the run ends and are then written out as JSON lines.

use std::io::Write;
use std::time::Instant;

/// Handle of a recorded span (`None` when tracing is off).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanId(Option<u32>);

/// A span that is open: its id and start time.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span's handle, to parent child spans under it.
    pub id: SpanId,
    start: u64,
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    epoch: u64,
    router: Option<usize>,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named after the public call it wraps.
    pub fn open(
        &mut self,
        name: &'static str,
        epoch: u64,
        router: Option<usize>,
        parent: SpanId,
    ) -> Open {
        let start = self.now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                epoch,
                router,
                parent: parent.0,
                start_ns: start,
                end_ns: start,
            });
            (self.spans.len() - 1) as u32
        });
        Open {
            id: SpanId(id),
            start,
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end = self.now();
        if let Some(i) = open.id.0 {
            self.spans[i as usize].end_ns = end;
        }
        end - open.start
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        epoch: u64,
        router: Option<usize>,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.open(name, epoch, router, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Records a span timed elsewhere (on another thread) from its
    /// start and end instants.
    pub fn record(
        &mut self,
        name: &'static str,
        epoch: u64,
        router: Option<usize>,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                epoch,
                router,
                parent: parent.0,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Writes every kept span as one JSON line (`id`, `name`, `epoch`,
    /// `router`, `parent`, `start_ns`, `end_ns`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"epoch\":{},\"router\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.epoch,
                s.router.map_or("null".to_string(), |r| r.to_string()),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
