//! In-memory span recorder for the traced mode. The benchmark wraps every
//! call it makes into a layer of the program in a span; spans nest through
//! a parent stack, carry the request or step id they belong to, and are
//! written out once, when the run ends. With tracing off a span is just the
//! call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug)]
pub struct Span {
    /// Layer call name, e.g. `serving.recall`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request, step or round id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` belonging to `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Inclusive durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Serialise the spans, one JSON object per line after a header.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"i\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("],\n\"self_ns\": {");
        let totals = self_time_ns(&self.spans);
        let body: Vec<String> = totals
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("}}\n");
        out
    }
}

/// Total self time per span name: each span's duration minus the time its
/// direct children cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) holds recall [10,30) and score [40,90); score holds
        // predict [50,80). Self: request 100-20-50 = 30, score 50-30 = 20.
        let spans = vec![
            span("request", 0, 100, None),
            span("recall", 10, 30, Some(0)),
            span("score", 40, 90, Some(0)),
            span("predict", 50, 80, Some(2)),
            span("request", 100, 110, None),
        ];
        let got = self_time_ns(&spans);
        assert_eq!(got["request"], 30 + 10);
        assert_eq!(got["recall"], 20);
        assert_eq!(got["score"], 20);
        assert_eq!(got["predict"], 30);
        // Self times partition the root spans' wall time.
        assert_eq!(got.values().sum::<u64>(), 110);
    }

    #[test]
    fn tracer_nests_spans_and_writes_them_out() {
        let mut tr = Tracer::new(true);
        tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[0].duration_ns() >= tr.spans()[1].duration_ns());
        let json = tr.to_json();
        assert!(json.contains("\"name\": \"inner\""), "{json}");
        assert!(json.contains("\"parent\": 0, \"id\": 7"), "{json}");
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |_| 5), 5);
        assert!(tr.spans().is_empty());
    }
}
