//! In-memory spans recorded from outside the program, around each call
//! into a layer's public API.
//!
//! A span has a name, start and end (nanoseconds since the tracer's
//! epoch), the span that was open when it started, and a request id
//! (the batch or round sequence number). Spans stay in memory until
//! the run ends and are then written out in one piece, so recording
//! costs two clock reads and a vector push.

use crate::stats::Dist;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `serve.net.send`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The request this call served.
    pub request: u64,
    /// The thread (producer) that recorded it.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled tracer runs the wrapped call
/// and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u32,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder for `thread`; `enabled: false` makes every
    /// [`span`](Tracer::span) a plain call. Tracers that will be merged
    /// must share `epoch`.
    pub fn new(enabled: bool, thread: u32, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between top-level spans; a traced run
    /// alternates its operations this way, so the two halves measure
    /// tracing overhead under the same load.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` for `request`. Spans opened
    /// inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The merged spans of one traced run, with per-name summaries.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Self time per span: duration minus the part its children cover.
    self_ns: Vec<u64>,
}

impl Trace {
    /// Merges the spans of several tracers. Parent indices refer to
    /// spans of the same tracer, so each tracer's block is rebased.
    pub fn merge(tracers: impl IntoIterator<Item = Tracer>) -> Trace {
        let mut spans = Vec::new();
        for tracer in tracers {
            let base = spans.len() as u32;
            spans.extend(tracer.into_spans().into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        let mut self_ns: Vec<u64> = spans.iter().map(Span::ns).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.ns());
            }
        }
        Trace { spans, self_ns }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Dist {
        Dist::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ns() as f64 / 1e3)
                .collect(),
        )
    }

    /// Total self time of every span named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .sum()
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Per-name count, total and self time, for the run record.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self.self_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own;
        }
        out
    }

    /// Writes every span as JSON, one span per line: a `fields` header
    /// naming the columns, then each span as an array. A span's position
    /// in `spans` is its id, which `parent` refers to.
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"self_ns\", \"parent\", \
             \"request\", \"thread\"],\n\"spans\": ["
        )?;
        for (i, (s, own)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "[\"{}\",{},{},{own},{parent},{},{}]{comma}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, 0, epoch);
        a.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut b = Tracer::new(true, 1, epoch);
        b.span("outer", 2, |t| t.span("inner", 2, |_| ()));
        let trace = Trace::merge([a, b]);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.spans[3].parent, Some(2), "second tracer rebased");
        let outer = trace.total_ns("outer");
        let inner = trace.total_ns("inner");
        assert!(inner >= 2_000_000);
        assert_eq!(trace.self_ns("outer"), outer - inner);
        assert_eq!(trace.self_ns("inner"), inner);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
