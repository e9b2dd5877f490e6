//! In-memory spans recorded from the benchmark's own side of each layer
//! call, written out only at exit.
//!
//! A span's *self time* is its duration minus its children's. Children
//! recorded by the replay are re-executions of the step the parent
//! contains (the tree search inside a picture search inside an execute),
//! timed back to back rather than inside the parent's interval: the
//! layers expose no hooks yet, and spans inside the program are a later
//! change.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Crate name of the layer, or `client` for a whole client op.
    pub layer: &'static str,
    /// Index of the op in its stream; spans of one op share it.
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans against one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant spans are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a span measured elsewhere (a load thread's client op).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a new span and returns its result with the span's
    /// id. The id is allotted before `f` runs so children recorded by
    /// `f`'s caller can name it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.push(Span {
            name,
            layer,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (out, id)
    }

    /// Opens a span that will contain other spans; close it with
    /// [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, layer: &'static str, op: u64) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            layer,
            op,
            parent: None,
            start_ns: now,
            end_ns: now,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of one span.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// Median duration, µs, of the spans named `name` recorded at or
    /// after span `from` (0 when there are none).
    pub fn median_us(&self, name: &str, from: SpanId) -> f64 {
        let durations: Vec<f64> = self.spans[from as usize..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        crate::stats::median(&durations).unwrap_or(0.0)
    }

    /// Per-name totals; self time is duration minus direct children,
    /// floored at zero.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj()
                    .with("id", i)
                    .with("name", s.name)
                    .with("layer", s.layer)
                    .with("op", s.op)
                    .with("parent", s.parent.map_or(Json::Null, |p| (p as u64).into()))
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
            })
            .collect();
        Json::obj().with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            layer: "test",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let exec = t.push(span("execute", None, 0, 100));
        let search = t.push(span("picture_search", Some(exec), 100, 130));
        t.push(span("rtree", Some(search), 130, 140));
        let exec2 = t.push(span("execute", None, 200, 260));
        t.push(span("picture_search", Some(exec2), 260, 280));
        let totals = t.totals();
        assert_eq!(
            totals["execute"],
            NameTotals {
                count: 2,
                total_ns: 160,
                self_ns: 110
            }
        );
        assert_eq!(totals["picture_search"].self_ns, 40);
        assert_eq!(totals["rtree"].self_ns, 10);
        assert_eq!(t.median_us("execute", 0), 0.08);
        assert_eq!(t.median_us("execute", exec2), 0.06);
        assert_eq!(t.median_us("absent", 0), 0.0);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let mut t = Tracer::new();
        let p = t.push(span("p", None, 0, 10));
        t.push(span("c", Some(p), 10, 40));
        assert_eq!(t.totals()["p"].self_ns, 0);
    }

    #[test]
    fn spans_nest_in_time_and_serialise() {
        let mut t = Tracer::new();
        let outer = t.open("op", "client", 7);
        let (v, inner) = t.span("parse", "psql", 7, Some(outer), || 41 + 1);
        t.close(outer);
        assert_eq!(v, 42);
        assert!(t.duration_ns(outer) >= t.duration_ns(inner));
        let doc = t.to_json();
        let spans = doc.get("spans").unwrap().items().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("layer").unwrap().as_str(), Some("psql"));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("op").unwrap().as_f64(), Some(7.0));
    }
}
