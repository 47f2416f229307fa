//! In-memory span recorder for the traced pass.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the call: its name, start, end, the span that was open when it began
//! (its parent), and the request it served (a frame, sequence or session
//! id). Spans stay in memory while the pass runs and are written out once
//! at the end, so the only cost inside the timed region is two clock
//! reads and a `Vec` push per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Total and self time of the spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; closing consumes it.
#[must_use = "an open span must be closed with `end` or `end_as`"]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is charged to
        // the parent rather than to this span.
        self.spans[id].start_ns = self.now_ns();
        Open(id)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, span: Open) {
        let name = self.spans[span.0].name;
        self.end_as(span, name);
    }

    /// Closes the innermost open span under `name` — for calls whose
    /// layer is known only from their result (`push_frame` is an
    /// inference or an extrapolation).
    pub fn end_as(&mut self, span: Open, name: &'static str) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = end;
        s.name = name;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    /// Per-name call count, total time and self time over every closed
    /// span recorded since `from` (a value of [`Tracer::len`]).
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, Totals> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent,
    /// request]` rows (`parent` is `-1` for a root).
    pub fn to_json(&self) -> String {
        assert!(self.open.is_empty(), "every span is closed before export");
        let mut out = String::with_capacity(self.spans.len() * 48 + 64);
        out.push_str(
            "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans\":[\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\",{},{},{},{}]{sep}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", 0);
        t.leaf("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let totals = t.totals_since(0);
        let root = totals["root"];
        let child = totals["child"];
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.self_ns >= 2_000_000);
    }

    #[test]
    fn end_as_renames() {
        let mut t = Tracer::new();
        let s = t.begin("push", 3);
        t.end_as(s, "infer");
        assert!(t.totals_since(0).contains_key("infer"));
        assert!(t.to_json().contains("[\"infer\","));
    }
}
