//! The span recorder of the traced pass. Spans are recorded from the
//! benchmark's own code, *around* calls into each layer's public functions;
//! they are kept in memory and dumped to `trace_<workload>.json` at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `busy_ns` is `end_ns − start_ns` for an ordinary span;
/// an *aggregated* span (the probe loop's per-call buckets) covers the whole
/// loop and carries the summed time of its `calls` calls instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request: later spans carry the new id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - start_ns;
        (out, span.busy_ns)
    }

    /// Records an aggregated child of the innermost open span: `calls`
    /// calls that together took `busy_ns`, spread over the parent's extent.
    pub fn aggregate(&mut self, name: &'static str, busy_ns: u64, calls: u64) {
        let parent = *self.open.last().expect("an aggregate needs an open parent");
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.now_ns());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            busy_ns,
            calls,
            parent: Some(parent),
            request: self.request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}{}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its busy time minus its children's busy time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.busy_ns);
        }
    }
    own
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_default() += own;
    }
    let mut ranked: Vec<_> = by_name.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, busy_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            calls: 1,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // request(100) ⊃ execute(80) ⊃ {probe(50), sort(10)}; request ⊃ render(15)
        let spans = [
            span("request", 100, None),
            span("execute", 80, Some(0)),
            span("probe", 50, Some(1)),
            span("sort", 10, Some(1)),
            span("render", 15, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![5, 20, 50, 10, 15]);
        assert_eq!(
            self_times(&spans).iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert_eq!(self_time_by_name(&spans)[0], ("probe", 50));
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        let mut t = Tracer::new();
        let request = t.next_request();
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.aggregate("bucket", 1_000, 7);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(spans.iter().all(|s| s.request == request));
        assert_eq!((spans[2].busy_ns, spans[2].calls), (1_000, 7));
        assert!(spans[1].busy_ns >= 2_000_000 && outer >= spans[1].busy_ns);
        let own = self_times(spans);
        assert_eq!(own[0], outer - spans[1].busy_ns - 1_000);
        assert!(t.to_json().contains("\"name\":\"bucket\""));
    }
}
