//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and a parent; spans are kept in
//! memory while the workload runs and written out as JSON lines when
//! the benchmark exits. Self time is a span's duration minus the time
//! covered by its children. Disabled recorders (untraced runs) cost one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `LiveRuntime::join`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub type SpanTotals = BTreeMap<&'static str, (u64, u64, u64)>;

/// Span recorder with an explicit stack of open spans.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; when `enabled` is false every call is a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Closed spans in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> SpanTotals {
        let mut out = SpanTotals::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own;
        }
        out
    }

    /// The spans as JSON lines, every line tagged with `run` (the
    /// identifier all spans of one benchmark run share).
    #[must_use]
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.enter("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit();
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        let own = s.self_ns();
        assert_eq!(
            own[0],
            s.spans()[0].duration_ns() - s.spans()[1].duration_ns()
        );
        assert!(s.to_jsonl("t").lines().count() == 2);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        s.time("x", || ());
        assert!(s.spans().is_empty());
    }
}
