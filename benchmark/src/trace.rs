//! The span recorder of the traced pass.
//!
//! Spans are recorded from outside the program, around the calls the
//! harness makes into each crate's public API: name, start, end, and the
//! span that caused it. They stay in memory and are written out as JSON
//! lines when the run ends. Work that happens millions of times inside
//! one call (protocol callbacks inside `Sim::run_for`, `offer` per
//! message) is not one span each: the shims in [`crate::shim`] and the
//! workload loops aggregate it per `(layer, callback)` and the totals are
//! appended to the same file as `"agg"` lines.

use std::time::Instant;

/// Index of a span inside its [`Tracer`]; [`NONE`] when tracing is off
/// or the span has no parent.
pub type SpanId = u32;

/// "No span".
pub const NONE: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `gateway.poll_all`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// The enclosing span, or [`NONE`].
    pub parent: SpanId,
}

/// Host time and calls spent in one callback of one layer, summed over
/// every node or message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Number of calls.
    pub calls: u64,
    /// Host nanoseconds inside them (inclusive of what they call).
    pub ns: u64,
}

impl CallStat {
    /// Times `f` and adds it to the total.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// Adds another total to this one.
    pub fn add(&mut self, other: CallStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// The recorder. With tracing off, [`enter`](Tracer::enter) and
/// [`exit`](Tracer::exit) do not read the clock.
#[derive(Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent`.
    #[inline]
    pub fn enter(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`enter`](Self::enter).
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Seconds of span `id` not covered by its direct children: its
    /// self time.
    pub fn self_s(&self, id: SpanId) -> f64 {
        let Some(s) = self.spans.get(id as usize) else {
            return 0.0;
        };
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == id)
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9
    }

    /// Writes every span, then every aggregate, as one JSON object per
    /// line.
    ///
    /// # Errors
    ///
    /// Whatever `w` reports.
    pub fn write_jsonl(
        &self,
        w: &mut impl std::io::Write,
        aggregates: &[(&str, CallStat)],
    ) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"span\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, a) in aggregates {
            writeln!(
                w,
                "{{\"agg\": \"{name}\", \"calls\": {}, \"ns\": {}}}",
                a.calls, a.ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("iteration", NONE);
        let a = t.enter("sim.run_for", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("cloud.offer", root);
        t.exit(b);
        t.exit(root);
        let whole = t.total_s("iteration");
        assert!(t.total_s("sim.run_for") >= 0.002);
        let accounted = t.total_s("sim.run_for") + t.total_s("cloud.offer");
        assert!((t.self_s(root) - (whole - accounted)).abs() < 1e-9);
        assert_eq!(t.spans()[a as usize].parent, root);
    }

    #[test]
    fn trace_file_is_one_json_object_per_line() {
        let mut t = Tracer::new(true);
        let root = t.enter("iteration", NONE);
        let child = t.enter("gateway.poll_all", root);
        t.exit(child);
        t.exit(root);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, &[("mac.on_frame", CallStat { calls: 3, ns: 42 })])
            .expect("write to Vec");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).expect("json"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(
            lines[1].get("name").and_then(|v| v.as_str()),
            Some("gateway.poll_all")
        );
        assert_eq!(
            lines[2].get("agg").and_then(|v| v.as_str()),
            Some("mac.on_frame")
        );
        assert_eq!(lines[2].get("ns").and_then(|v| v.as_f64()), Some(42.0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", NONE);
        t.exit(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
        assert_eq!(t.self_s(id), 0.0);
    }
}
