//! Spans recorded by the benchmark's own code around each public call into
//! the repository: name, start, end, the span that caused it, and the op it
//! belongs to. Kept in memory; written out once, as a Chrome trace, when the
//! run ends. With tracing off nothing is recorded and each site costs one
//! branch.

use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one op.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle between ops only");
        self.on = on;
    }

    /// Open a span under the innermost open one. A span opened with nothing
    /// open is a root and starts a new op.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let now = self.now_ns();
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let idx = self.stack.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children never overlap each other here (one recording
/// thread, strictly nested enter/exit), so that part is their summed length.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share of the time of the root spans called `root` — the ops — that no
/// child span accounts for.
pub fn dark_fraction(spans: &[Span], root: &str) -> f64 {
    let own = self_times_ns(spans);
    let (mut dark, mut total) = (0u64, 0u64);
    for (s, o) in spans.iter().zip(&own) {
        if s.parent.is_none() && s.name == root {
            dark += o;
            total += s.dur_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        dark as f64 / total as f64
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`X`) event per span, the op id and parent index in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            parent
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // op [0,100] { record [0,20], run [20,90] { analyze [20,30] }, read [92,98] }
        let spans = vec![
            span("op", 0, 100, None),
            span("record", 0, 20, Some(0)),
            span("run", 20, 90, Some(0)),
            span("analyze", 20, 30, Some(2)),
            span("read", 92, 98, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![4, 20, 60, 10, 6]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert!((dark_fraction(&spans, "op") - 0.04).abs() < 1e-12);
    }

    #[test]
    fn dark_fraction_weights_roots_by_duration() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 100, Some(0)),
            span("op", 100, 400, None),
            span("a", 100, 340, Some(2)),
            span("setup", 400, 900, None),
        ];
        assert!((dark_fraction(&spans, "op") - 60.0 / 400.0).abs() < 1e-12);
        assert_eq!(dark_fraction(&[], "op"), 0.0);
    }

    #[test]
    fn tracer_nests_and_numbers_ops() {
        let mut t = Tracer::new();
        t.time("ignored", || ());
        assert!(t.spans().is_empty(), "off records nothing");
        t.set_enabled(true);
        for _ in 0..2 {
            t.enter("op");
            t.time("a", || ());
            t.enter("b");
            t.time("c", || ());
            t.exit();
            t.exit();
        }
        let s = t.spans();
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[0].op, s[3].op, s[4].op, s[7].op), (1, 1, 2, 2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(t.durations_us("c").len(), 2);
        let json = chrome_trace(s);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
    }
}
