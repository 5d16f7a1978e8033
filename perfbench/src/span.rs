//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a layer's public
//! function in a span: name, start, end, parent span and op id. Nothing
//! is recorded inside the program. Spans stay in memory and are written
//! out once the run ends.
//!
//! A CLI call cannot be split from outside, so its children are
//! *attributed*: right after the call, the benchmark repeats the call's
//! layer work on the same inputs through the layers' public APIs and
//! records those spans with the CLI span as parent. A span's self time is
//! its duration minus the time its nested and attributed children cover.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Run after its parent ended, repeating part of the parent's work.
    pub attributed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; always measures the wrapped call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s result, the host nanoseconds it took, and
    /// the span's index when recording.
    pub fn span<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64, Option<usize>) {
        let parent = self.stack.last().copied();
        self.record(name, parent, false, f)
    }

    /// Like [`Tracer::span`], but the span is an attributed child of
    /// `parent`, which has already ended.
    pub fn attributed<R>(
        &mut self,
        parent: Option<usize>,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64, Option<usize>) {
        self.record(name, parent, true, f)
    }

    fn record<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        attributed: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64, Option<usize>) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, elapsed_ns(t0), None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent,
            op: self.op,
            start_ns: 0,
            end_ns: 0,
            attributed,
        });
        self.stack.push(id);
        let t0 = Instant::now();
        let r = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        let start = t0.duration_since(self.epoch).as_nanos() as u64;
        let end = t1.duration_since(self.epoch).as_nanos() as u64;
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        (r, end - start, Some(id))
    }

    /// Self time of every span: duration minus the time covered by its
    /// nested children and its attributed children, floored at zero.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// `(count, total duration, total self time)` of the spans named
    /// exactly `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        let own = self.self_times();
        let mut out = (0, 0, 0);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == name {
                out.0 += 1;
                out.1 += s.dur_ns();
                out.2 += own;
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"attributed\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.attributed
            );
        }
        out
    }
}

pub fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while elapsed_ns(t) < ns {}
    }

    #[test]
    fn self_time_subtracts_nested_and_attributed_children() {
        let mut t = Tracer::new(true);
        let (_, _, parent) = t.span("cli.run", |t| {
            t.span("engine.inner", |_| spin(2_000_000));
            spin(1_000_000);
        });
        t.attributed(parent, "obs.json_parse", |_| spin(500_000));
        let own = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[2].attributed);
        let expect = spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns();
        assert_eq!(own[0], expect);
        assert_eq!(own[1], spans[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, ns, id) = t.span("engine.run", |_| {
            spin(100_000);
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 100_000);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}
