//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, tag, start, end, parent). Spans stay in memory while the
//! run measures and are written as JSON Lines when it ends. A layer's
//! self time is its spans' durations minus the part covered by their
//! child spans. With tracing off, [`Tracer::enter`] and
//! [`Tracer::exit`] do nothing, not even read the clock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `session.feed`.
    pub name: &'static str,
    /// Sub-key within the layer (architecture slug), or `""`.
    pub tag: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, tag: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`enter`](Self::enter) (spans close in
    /// reverse order of opening).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, after a header line carrying
    /// `header` (already-rendered JSON object fields, without braces).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_jsonl<W: Write>(&self, out: &mut W, header: &str) -> io::Result<()> {
        writeln!(out, "{{{header}}}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations (children nest inside their parent on one thread).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = own.get_mut(p) {
                *parent = parent.saturating_sub(s.duration_ns());
            }
        }
    }
    own
}

/// Call count and summed self time of one `(name, tag)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time in nanoseconds.
    pub self_ns: u64,
}

/// Self time summed per `(name, tag)` over `spans[from..]`.
#[must_use]
pub fn totals_since(spans: &[Span], from: usize) -> BTreeMap<(&'static str, &'static str), Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<(&'static str, &'static str), Totals> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own).skip(from) {
        let t = out.entry((s.name, s.tag)).or_default();
        t.calls += 1;
        t.self_ns += ns;
    }
    out
}

/// Wall durations (ns) of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // run [0,100) > feed [10,60) > chunk [20,30); finish [70,90).
        let spans = [
            span("run", 0, 100, None),
            span("feed", 10, 60, Some(0)),
            span("chunk", 20, 30, Some(1)),
            span("finish", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name_and_skip_earlier_spans() {
        let spans = [
            span("feed", 0, 10, None),
            span("feed", 10, 25, None),
            span("pending", 25, 26, None),
        ];
        let all = totals_since(&spans, 0);
        assert_eq!(
            all[&("feed", "")],
            Totals {
                calls: 2,
                self_ns: 25
            }
        );
        let later = totals_since(&spans, 1);
        assert_eq!(
            later[&("feed", "")],
            Totals {
                calls: 1,
                self_ns: 15
            }
        );
        assert_eq!(durations(&spans, "pending"), vec![1.0]);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", "");
        let inner = t.enter("inner", "x");
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf, "\"run\":\"test\"").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        let s = off.enter("outer", "");
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
