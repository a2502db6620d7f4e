//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A span is `(name, start, end, parent, rep)`. Spans are kept in memory and
//! written out once, when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover. With the
//! tracer off, [`Tracer::span`] is a branch and a call: end-to-end numbers are
//! only ever taken with it off.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` under a span called `name`, child of whichever span is open.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = self.open_span(name);
        let out = f();
        self.close_span(index);
        out
    }

    /// Opens a span that encloses later [`Tracer::span`] calls; close it with
    /// [`Tracer::close_span`]. Returns 0 when the tracer is off.
    pub fn open_span(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        index
    }

    pub fn close_span(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One JSON object per line:
/// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…,"rep":…}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
            s.name, s.start_ns, s.end_ns, s.rep
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the time its direct children
/// cover. Children of one parent never overlap (spans nest, one thread), so
/// the covered time is the plain sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
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
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        // rep [0,100) ⊃ submit [10,40) ⊃ lookup [15,25); rep ⊃ advance [50,90).
        let spans = vec![
            span("rep", 0, 100, None),
            span("submit", 10, 40, Some(0)),
            span("lookup", 15, 25, Some(1)),
            span("advance", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(durations_ns(&spans, "advance"), vec![40.0]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::on();
        let outer = t.open_span("outer");
        t.span("inner", || ());
        t.close_span(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
