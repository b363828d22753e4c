//! In-memory spans for the traced run, their Chrome trace-event export, and
//! the per-layer self times derived from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span; times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `numeric.sparse.factor`.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the request every span of one request shares.
    pub request: String,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: String,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), request: String::new() }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, id: &str) {
        id.clone_into(&mut self.request);
    }

    /// Runs `f` inside a span called `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request.clone(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records a span timed elsewhere, nested in the open span.
    pub fn record(&mut self, name: &str, start: f64, end: f64) {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent: self.open.last().copied(),
            request: self.request.clone(),
        });
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children on one thread never overlap).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration();
            }
        }
        own
    }

    /// Total self time and count of the spans of each name, restricted to
    /// spans whose request id starts with `prefix`.
    pub fn layer_totals(&self, prefix: &str) -> BTreeMap<String, (f64, usize)> {
        let own = self.self_times();
        let mut totals: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            if span.request.starts_with(prefix) {
                let entry = totals.entry(span.name.clone()).or_default();
                entry.0 += own;
                entry.1 += 1;
            }
        }
        totals
    }

    /// Chrome trace-event JSON (`"ph":"X"` complete events, microseconds),
    /// the format of the repository's `TRACE_*.json`, with each span's
    /// request id and parent in its `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent =
                span.parent.map_or("null".to_owned(), |p| format!("\"{}\"", self.spans[p].name));
            let _ = write!(
                out,
                "    {{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"request_id\":\"{}\",\"span\":{i},\"parent\":{parent}}}}}",
                span.name,
                span.start * 1e6,
                span.duration() * 1e6,
                span.request,
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut t = Tracer::new();
        t.set_request("r1");
        t.span("root", |t| {
            let at = t.now();
            t.record("child", at, at + 0.25);
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let own = t.self_times();
        let root = &t.spans()[0];
        let total: f64 = own.iter().sum();
        assert!((total - root.duration()).abs() < 1e-9, "self times add up to the root");
        assert!((own[1] - 0.25).abs() < 1e-12);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.request == "r1"));
        let totals = t.layer_totals("r");
        assert_eq!(totals["inner"].1, 1);
        assert!(t.layer_totals("x").is_empty());
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\": [") && json.contains("\"request_id\":\"r1\""));
        assert!(rlckit_server::json::parse(&json).is_ok(), "the export is valid JSON");
    }
}
