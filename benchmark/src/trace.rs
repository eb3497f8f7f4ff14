//! In-memory spans around the calls into each layer, written out when the
//! run ends. The spans are taken from the benchmark's side of the public
//! API; spans inside the crates are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

/// One timed call. `parent` names the span whose time this one explains.
///
/// For the pipeline workloads the children are *prefix replays*: `walks`,
/// then `embeddings` (which walks again), then `run_*` (which does both
/// again) run back to back, not inside one another, because the public API
/// exposes prefixes of the pipeline and not its stages. The parent link
/// still says whose duration the child accounts for, which is all the
/// self-time subtraction needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covers (hops, tokens, requests, ...).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; with tracing off every call only runs the
/// closure it was given.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), next_id: 0, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id, so a child can name a parent that runs after it.
    pub fn reserve(&mut self) -> SpanId {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Runs `work` inside a span with a reserved id. `work` returns its
    /// result and the span's work count.
    pub fn span_as<T>(
        &mut self,
        id: SpanId,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        work: impl FnOnce() -> (T, u64),
    ) -> T {
        if !self.enabled {
            return work().0;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let (out, count) = work();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, layer, name, start_ns, end_ns, count });
        out
    }

    /// Runs `work` inside a fresh span.
    pub fn span<T>(
        &mut self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        work: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.reserve();
        self.span_as(id, parent, layer, name, work)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::from(u64::from(s.id))),
                ("parent", s.parent.map_or(Json::Null, |p| Json::from(u64::from(p)))),
                ("layer", Json::from(s.layer)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("count", Json::from(s.count)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of the spans
/// that name it as parent, floored at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut own: BTreeMap<SpanId, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for child in spans {
        if let Some(slot) = child.parent.and_then(|p| own.get_mut(&p)) {
            *slot = slot.saturating_sub(child.duration_ns());
        }
    }
    own
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut layers = BTreeMap::new();
    for s in spans {
        *layers.entry(s.layer).or_insert(0) += own[&s.id];
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, layer, name: "t", start_ns: start, end_ns: end, count: 1 }
    }

    #[test]
    fn self_time_subtracts_each_child_once() {
        // run (100) <- embeddings (60) <- walks (10), replayed back to back.
        let spans = [
            span(2, Some(1), "twalk", 0, 10),
            span(1, Some(0), "embed", 10, 70),
            span(0, None, "core", 70, 170),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 40);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 10);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["core"] + layers["embed"] + layers["twalk"], 100);
    }

    #[test]
    fn self_time_floors_at_zero_and_ignores_unknown_parents() {
        // A replayed child may run longer than the parent it explains.
        let spans = [span(0, None, "core", 0, 10), span(1, Some(0), "embed", 10, 25)];
        assert_eq!(self_times(&spans)[&0], 0);
        let orphan = [span(5, Some(99), "embed", 0, 7)];
        assert_eq!(self_times(&orphan)[&5], 7);
    }

    #[test]
    fn disabled_tracer_runs_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span(None, "core", "noop", || (41 + 1, 0));
        assert_eq!(x, 42);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let parent = t.reserve();
        t.span(Some(parent), "twalk", "walks", || ((), 7));
        t.span_as(parent, None, "core", "run", || ((), 1));
        assert_eq!(t.spans().len(), 2);
        assert_ne!(t.spans()[0].id, parent);
        assert_eq!(t.spans()[0].parent, Some(parent));
        assert_eq!(t.spans()[0].count, 7);
        assert!(t.spans()[1].end_ns >= t.spans()[1].start_ns);
    }
}
