//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans stay in memory and are written out once, after the measurement.
//! A disabled recorder records nothing, so the untraced run pays one branch
//! per span; the end-to-end numbers always come from that run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one job share this identifier.
    pub job: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a finished span and returns its index for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// One JSON object per line: name, start, end, parent, job.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        out
    }
}

/// Busy and self time per span name. Children of one parent are taken not to
/// overlap each other, which holds for spans recorded by one thread.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
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
            job: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("deploy", 0, 100, None),
            span("select", 0, 30, Some(0)),
            span("record", 40, 90, Some(0)),
            span("fit", 50, 70, Some(2)),
            span("deploy", 100, 150, None),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["deploy"],
            Totals {
                calls: 2,
                busy_ns: 150,
                self_ns: 70
            }
        );
        assert_eq!(
            t["select"],
            Totals {
                calls: 1,
                busy_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            t["record"],
            Totals {
                calls: 1,
                busy_ns: 50,
                self_ns: 30
            }
        );
        assert_eq!(t["fit"].self_ns, 20);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let now = Instant::now();
        assert_eq!(r.span("x", now, now, None, 1), None);
        assert!(r.spans().is_empty());
        r.set_enabled(true);
        let root = r.span("x", now, now, None, 1);
        assert_eq!(root, Some(0));
        r.span("y", now, now, root, 1);
        assert_eq!(r.to_jsonl().lines().count(), 2);
        assert!(r.to_jsonl().contains("\"parent\":0"));
    }
}
