//! In-memory spans for the traced run, and self-time arithmetic.
//!
//! Spans are recorded into memory while the run executes and written out
//! once, when it ends, so the timed code never waits on IO. Times are
//! nanoseconds since the tracer's epoch.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer (its id).
    pub id: usize,
    /// Parent span id, `None` for roots.
    pub parent: Option<usize>,
    /// Dotted name, `layer.operation` (e.g. `workloads.generate`).
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Shared identifier: the request index for `workloads.generate`
    /// spans, the cell index for runner spans.
    pub tag: Option<u64>,
}

impl Span {
    /// End, ns since the epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Self time of a span covering `[start, end)`: its length minus the part
/// of it that the union of `children` covers. Children may overlap each
/// other and may stick out of the parent; only the covered part inside
/// the parent is subtracted, and nothing is counted twice.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let len = end.saturating_sub(start);
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    len - covered.min(len)
}

/// A thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        tag: Option<u64>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("no poisoned lock");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            tag,
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet (a parent that
    /// children will point at); [`Tracer::close`] fills in its duration.
    pub fn open(&self, parent: Option<usize>, name: &str, tag: Option<u64>) -> usize {
        let now = self.now_ns();
        self.record(parent, name, now, now, tag)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("no poisoned lock");
        let span = &mut spans[id];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    /// Appends already-timed children of `parent` in one lock.
    pub fn extend_children(&self, parent: usize, name: &str, children: &[(u64, u64, u64)]) {
        let mut spans = self.spans.lock().expect("no poisoned lock");
        for &(start_ns, end_ns, tag) in children {
            let id = spans.len();
            spans.push(Span {
                id,
                parent: Some(parent),
                name: name.to_string(),
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                tag: Some(tag),
            });
        }
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no poisoned lock").clone()
    }

    /// Self time of span `id`: its duration minus its recorded children.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let spans = self.spans.lock().expect("no poisoned lock");
        let parent = &spans[id];
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns()))
            .collect();
        self_time_ns(parent.start_ns, parent.end_ns(), &children)
    }
}

/// Renders spans as a JSON array, one span object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let tag = s.tag.map_or("null".to_string(), |t| t.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"tag\": {}}}",
            s.id, parent, s.name, s.start_ns, s.dur_ns, tag
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_span() {
        assert_eq!(self_time_ns(100, 250, &[]), 150);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        // [0, 100) with children [10, 20) and [50, 80): 100 - 10 - 30.
        assert_eq!(self_time_ns(0, 100, &[(50, 80), (10, 20)]), 60);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10, 40) ∪ [30, 60) = [10, 60): 50 covered.
        assert_eq!(self_time_ns(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested in another child adds nothing.
        assert_eq!(self_time_ns(0, 100, &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns(100, 200, &[(50, 120), (180, 300)]), 60);
        assert_eq!(self_time_ns(100, 200, &[(0, 50), (250, 300)]), 100);
        assert_eq!(self_time_ns(100, 200, &[(0, 500)]), 0);
    }

    #[test]
    fn tracer_tree_self_time() {
        let t = Tracer::new();
        let root = t.record(None, "platform.run", 0, 1_000, Some(0));
        t.extend_children(root, "workloads.generate", &[(100, 400, 0), (500, 700, 1)]);
        t.record(None, "other", 0, 10, None);
        assert_eq!(t.self_time_ns(root), 500);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].tag, Some(1));
        let json = to_json(&spans);
        assert!(json.contains("\"name\": \"workloads.generate\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn open_close_measures_elapsed() {
        let t = Tracer::new();
        let id = t.open(None, "replay.jit", None);
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        assert!(x > 0);
        t.close(id);
        let s = &t.spans()[id];
        assert!(s.dur_ns > 0);
    }
}
