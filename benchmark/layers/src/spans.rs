//! In-memory spans around the calls into each layer, written out as
//! JSON lines when the run ends.

use std::time::Instant;

/// One timed call. `parent` is the span that caused it; spans of one
/// operation (an event line, a corpus instance) share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A shadow span re-runs, outside its parent's interval, one step of
    /// what the parent did inside a single opaque call.
    pub shadow: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<T>(&mut self, span: Span, work: impl FnOnce(&mut Recorder, usize) -> T) -> T {
        let id = span.id;
        self.spans.push(span);
        self.spans[id].start_ns = self.now_ns();
        let out = work(self, id);
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Times `work` as a span nested in `parent`; `work` gets the new
    /// span's id so it can open children of its own.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: &str,
        parent: Option<usize>,
        work: impl FnOnce(&mut Recorder, usize) -> T,
    ) -> T {
        let span = Span {
            id: self.spans.len(),
            parent,
            name,
            op: op.to_string(),
            start_ns: 0,
            end_ns: 0,
            shadow: false,
        };
        self.record(span, work)
    }

    /// Times `work` as a shadow child of `parent`.
    pub fn shadow<T>(&mut self, name: &'static str, parent: usize, work: impl FnOnce() -> T) -> T {
        let op = self.spans[parent].op.clone();
        let span = Span {
            id: self.spans.len(),
            parent: Some(parent),
            name,
            op,
            start_ns: 0,
            end_ns: 0,
            shadow: true,
        };
        self.record(span, |_, _| work())
    }

    /// A span's duration minus what its children cover. Nested children
    /// run back to back inside the parent and shadow children stand for
    /// steps that did, so what they cover is the sum of their durations,
    /// capped at the parent's own.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(covered)
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Whether any span's name starts with `prefix`.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.spans.iter().any(|s| s.name.starts_with(prefix))
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"shadow\":{}}}\n",
                s.id,
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.shadow
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64, shadow: bool) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: "op".to_string(),
            start_ns,
            end_ns,
            shadow,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            fixed(0, None, 100, 1100, false),    // root: 1000 ns
            fixed(1, Some(0), 150, 450, false),  // nested child: 300
            fixed(2, Some(0), 500, 900, false),  // nested child: 400
            fixed(3, Some(2), 600, 700, false),  // grandchild: 100, not the root's
            fixed(4, Some(0), 2000, 2250, true), // shadow child, outside the interval: 250
            fixed(5, None, 3000, 3100, false),   // unrelated
        ];
        assert_eq!(rec.self_ns(0), 1000 - 300 - 400 - 250);
        assert_eq!(rec.self_ns(2), 400 - 100);
        assert_eq!(rec.self_ns(5), 100);
    }

    #[test]
    fn shadow_children_cannot_drive_self_time_negative() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            fixed(0, None, 0, 100, false),
            fixed(1, Some(0), 500, 700, true),
        ];
        assert_eq!(rec.self_ns(0), 0);
    }

    #[test]
    fn recorded_spans_nest_and_share_the_operation() {
        let mut rec = Recorder::new();
        rec.span("root", "event-7", None, |rec, root| {
            rec.span("child", "event-7", Some(root), |_, _| {
                std::hint::black_box(1 + 1)
            });
            rec.shadow("again", root, || std::hint::black_box(2 + 2));
        });
        let [root, child, again] = rec.spans.as_slice() else {
            panic!("three spans")
        };
        assert_eq!((child.parent, again.parent), (Some(root.id), Some(root.id)));
        assert!(
            root.start_ns <= child.start_ns
                && child.end_ns <= again.start_ns
                && again.end_ns <= root.end_ns
        );
        assert!(again.shadow && !child.shadow);
        assert_eq!(again.op, "event-7");
        assert_eq!(rec.to_jsonl().lines().count(), 3);
        assert!(rec.has_prefix("chi") && !rec.has_prefix("sim."));
    }
}
