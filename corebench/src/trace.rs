//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark times public functions from the outside: a span is
//! one call, named after the layer (module) it enters. Spans stay in
//! memory and are written out once, when the run ends. A disabled
//! tracer records nothing and costs one branch per call, which is what
//! the untraced (end-to-end) runs use.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// The operation (request) this span belongs to.
    pub op: u64,
    /// Layer name, e.g. `ir.parse`.
    pub name: &'static str,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

/// The run's span recorder (shared by reference across client threads).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled = false` every call passes straight
    /// through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id for a parent whose own span is recorded after
    /// its children have run (0 when disabled).
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside a span named `name` under `parent` (0 = root).
    pub fn span<R>(&self, name: &'static str, op: u64, parent: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.reserve();
        self.span_as(id, name, op, parent, f)
    }

    /// [`Tracer::span`] under an id taken earlier with
    /// [`Tracer::reserve`], so children can name it as their parent.
    pub fn span_as<R>(
        &self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record_as(id, name, op, parent, start, Instant::now());
        out
    }

    /// Records a span measured by the caller, for intervals that do not
    /// fit one closure (a request written by one call and answered by
    /// a later read).
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.record_as(self.reserve(), name, op, 0, start, end);
        }
    }

    fn record_as(
        &self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// File creation and write failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, 0, || 41 + 1), 42);
        assert_eq!(t.reserve(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_reserved_parents() {
        let t = Tracer::new(true);
        let parent = t.reserve();
        t.span_as(parent, "outer", 5, 0, || {
            t.span("inner", 5, parent, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
