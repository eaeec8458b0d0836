//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Nothing inside the program under test is instrumented: a span brackets
//! one call (or one loop of identical calls, with the call count) that
//! `lormbench` makes through `api.rs`. Spans are kept in a `Vec` and
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Where the churn loop and the replay report their calls. The untraced
/// runs use [`NoSpans`], which compiles to nothing.
pub trait Spans {
    /// Open a span; returns its id.
    fn enter(&mut self, name: &'static str, layer: &'static str) -> u32;
    /// Close span `id`, which covered `calls` calls into the layer.
    fn exit(&mut self, id: u32, calls: u64);
}

/// The recorder of the untraced runs.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _layer: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _id: u32, _calls: u64) {}
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Entry point called, e.g. `route_stats`.
    pub name: &'static str,
    /// Crate directory of the layer, e.g. `chord`.
    pub layer: &'static str,
    /// Cell the span belongs to: a system name, or `bed`.
    pub cell: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Calls into the layer the span covers.
    pub calls: u64,
}

/// The recorder of the traced run.
pub struct Tracer {
    origin: Instant,
    cell: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder; time zero is now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), cell: "bed", spans: Vec::new(), open: Vec::new() }
    }

    /// Spans opened from now on belong to `cell`.
    pub fn set_cell(&mut self, cell: &'static str) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the `name` spans of `cell`, in start order.
    pub fn durations(&self, cell: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.cell == cell && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed seconds and summed calls of the `name` spans of `cell`.
    pub fn total(&self, cell: &str, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.cell == cell && s.name == name)
            .fold((0.0, 0), |(t, c), s| (t + (s.end_ns - s.start_ns) as f64 * 1e-9, c + s.calls))
    }

    /// One JSON object per line: `workload`, `id`, `parent`, `cell`,
    /// `layer`, `name`, `start_ns`, `end_ns`, `calls`.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"cell\":\"{}\",\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.cell, s.layer, s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans for Tracer {
    fn enter(&mut self, name: &'static str, layer: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            cell: self.cell,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        id
    }

    fn exit(&mut self, id: u32, calls: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
    }
}
