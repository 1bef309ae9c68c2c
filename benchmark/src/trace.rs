//! Harness-side tracing: a span around every call the benchmark makes into
//! a product layer. Spans live in memory and are written, bounded, when the
//! run ends. Spans cannot yet nest inside the program, so a layer's self
//! time is its span minus the child spans the *harness* opened inside it;
//! the single-thread ladder (`ladder.rs`) gives the per-layer deltas.

use std::collections::BTreeMap;

use crate::common::now_ns;
use crate::json::Json;

/// Raw spans kept per tracer; later spans only feed the per-name totals.
const MAX_RAW_SPANS: usize = 1 << 18;
/// Raw spans written to the trace file.
const MAX_WRITTEN_SPANS: usize = 4096;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within its tracer (1-based).
    pub id: u32,
    /// The span that caused this one (0 = root).
    pub parent: u32,
    /// Request identifier shared by the spans of one request (0 = none).
    pub request: u64,
    /// Layer-qualified name, e.g. `kernel.execute[insert]`.
    pub name: &'static str,
    /// Start, harness clock ns.
    pub start_ns: u64,
    /// End, harness clock ns.
    pub end_ns: u64,
}

/// Per-name aggregate over every span recorded, raw or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Part of `total_ns` covered by child spans.
    pub child_ns: u64,
}

impl Total {
    /// Time spent in the span itself, outside its children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// A per-thread span recorder. When disabled every method is one branch,
/// so the untraced segments of a traced run measure the harness as the
/// untraced binary runs it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
    stack: Vec<Frame>,
    next_id: u32,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            stack: Vec::new(),
            next_id: 1,
        }
    }

    /// Turns recording on or off between segments (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = enabled;
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn take_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        id
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let id = self.take_id();
        self.stack.push(Frame {
            id,
            request,
            name,
            start_ns: now_ns(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = now_ns();
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(frame.start_ns);
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child_ns += dur;
            p.id
        });
        self.record(
            Span {
                id: frame.id,
                parent,
                request: frame.request,
                name: frame.name,
                start_ns: frame.start_ns,
                end_ns,
            },
            frame.child_ns,
        );
    }

    /// Records a root span measured elsewhere (a send-to-answer interval
    /// whose two ends are seen at different points of the loop).
    pub fn interval(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.take_id();
        self.record(
            Span {
                id,
                parent: 0,
                request,
                name,
                start_ns,
                end_ns,
            },
            0,
        );
    }

    fn record(&mut self, span: Span, child_ns: u64) {
        let t = self.totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.end_ns.saturating_sub(span.start_ns);
        t.child_ns += child_ns;
        if self.spans.len() < MAX_RAW_SPANS {
            self.spans.push(span);
        }
    }

    /// The aggregate for one span name.
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
        }
        let room = MAX_RAW_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// The trace as JSON: per-name totals over every span, plus the first
    /// spans verbatim (bounded, so a long run cannot fill the disk).
    pub fn to_json(&self, workload: &str) -> Json {
        let totals = self.totals.iter().map(|(name, t)| {
            (
                (*name).to_owned(),
                Json::obj([
                    ("count".to_owned(), Json::Num(t.count as f64)),
                    ("total_ns".to_owned(), Json::Num(t.total_ns as f64)),
                    ("self_ns".to_owned(), Json::Num(t.self_ns() as f64)),
                ]),
            )
        });
        let spans = self.spans.iter().take(MAX_WRITTEN_SPANS).map(|s| {
            Json::obj([
                ("id".to_owned(), Json::Num(f64::from(s.id))),
                ("parent".to_owned(), Json::Num(f64::from(s.parent))),
                ("request".to_owned(), Json::Num(s.request as f64)),
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("start_ns".to_owned(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_owned(), Json::Num(s.end_ns as f64)),
            ])
        });
        Json::obj([
            ("workload".to_owned(), Json::Str(workload.to_owned())),
            (
                "spans_recorded".to_owned(),
                Json::Num(self.totals.values().map(|t| t.count).sum::<u64>() as f64),
            ),
            ("totals".to_owned(), Json::obj(totals)),
            ("spans".to_owned(), Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("batch", 7);
        t.begin("deliver", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let batch = t.total("batch");
        let deliver = t.total("deliver");
        assert_eq!((batch.count, deliver.count), (1, 1));
        assert_eq!(batch.child_ns, deliver.total_ns);
        assert!(batch.self_ns() < batch.total_ns);
        let raw = &t.spans;
        assert_eq!(raw[0].name, "deliver");
        assert_eq!(raw[0].parent, raw[1].id);
        assert_eq!(raw[1].parent, 0);
        assert_eq!(raw[0].request, 7);

        let mut off = Tracer::new(false);
        off.begin("x", 0);
        off.end();
        off.interval("y", 1, 2, 3);
        assert_eq!(off.total("x").count + off.total("y").count, 0);
    }
}
