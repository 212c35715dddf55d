//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and an optional request id
//! (the tick). Spans are kept in memory while the run executes and
//! written out once it ends. A layer's self time is its spans' total
//! duration minus the part of each span that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `stream.entropy.push`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one tick.
    pub request: Option<u64>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `parent`, `request`).
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            ));
        }
        out
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.clamp(s.start_ns, s.end_ns),
                    spans[c].end_ns.clamp(s.start_ns, s.end_ns),
                )
            })
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name.clone()).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // round [0,100] ⊃ solve [10,60] ⊃ factor [20,30]; ckpt [70,90].
        let spans = vec![
            span("round", 0, 100, None),
            span("solve", 10, 60, Some(0)),
            span("factor", 20, 30, Some(1)),
            span("ckpt", 70, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["round"], 100 - 50 - 20);
        assert_eq!(st["solve"], 50 - 10);
        assert_eq!(st["factor"], 10);
        assert_eq!(st["ckpt"], 20);
        // Self times partition the root's interval exactly.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 0, 30, Some(0)),  // overhangs the start
            span("b", 20, 40, Some(0)), // overlaps a
            span("b", 45, 80, Some(0)), // overhangs the end
        ];
        let st = self_times(&spans);
        // Covered: [10,40] ∪ [45,50] = 35 of 40.
        assert_eq!(st["root"], 5);
        assert_eq!(st["b"], 20 + 35);
    }

    #[test]
    fn same_name_spans_accumulate_and_nest_via_the_tracer() {
        let mut t = Tracer::new();
        t.span("day", None, |t| {
            for k in 0..3u64 {
                t.span("round", Some(k), |t| {
                    t.span("solve", Some(k), |_| std::hint::black_box(k * 2));
                });
            }
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let st = self_times(spans);
        let total: u64 = st.values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert_eq!(t.to_jsonl().lines().count(), 7);
    }
}
