//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a library layer; nothing inside the library is
//! instrumented. Spans live in memory and are written once, when the run
//! ends. Recording runs on one thread, so a child span always nests
//! inside its parent on the same clock. That clock is [`HostTimer`], the
//! one the end-to-end metrics use, so layer and end-to-end times compare.

use crate::report::HostTimer;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `gpu.execute`, or a `bench.*` container.
    pub name: &'static str,
    /// Start, host-time nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, host-time nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The grid cell or serve cell the span belongs to.
    pub id: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// the closure, so untraced runs pay no clock reads.
pub struct Tracer {
    epoch: HostTimer,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: HostTimer::start(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] that also returns the call's host time in
    /// seconds, measured whether or not recording is enabled.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let t0 = HostTimer::start();
        let out = self.span(name, None, f);
        (out, t0.secs())
    }

    fn now_ns(&self) -> u64 {
        (self.epoch.secs() * 1e9) as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name` that starts at or after
    /// span index `from`, in seconds.
    pub fn total_s(&self, name: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// The spans as JSON, each with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                own,
                opt(s.parent.map(|p| p as u64)),
                opt(s.id),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Which of an untraced and a traced pass runs first in round `round`:
/// they alternate, so neither always pays the process's warm-up.
pub fn pair_order(round: usize) -> [bool; 2] {
    if round.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals, clipped to the span. Overlapping children count
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Summed self time of every span whose name starts with `prefix`, in
/// seconds.
pub fn self_s_with_prefix(spans: &[Span], prefix: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name.starts_with(prefix))
        .map(|(_, own)| own as f64 / 1e9)
        .sum()
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
            id: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild is covered by its parent `b` and must not be
            // subtracted from the root a second time.
            span("d", 25, 45, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 20);
        assert!((self_s_with_prefix(&spans, "bench.") - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn children_reaching_past_the_parent_are_clipped() {
        let spans = vec![
            span("p", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 180, 260, Some(0)),
            span("inside", 120, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 30 - 20);
    }

    #[test]
    fn a_span_fully_covered_by_children_has_zero_self_time() {
        let spans = vec![
            span("p", 0, 10, None),
            span("x", 0, 6, Some(0)),
            span("y", 4, 10, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", Some(7), |t| t.span("inner", None, |_| 3));
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].id, Some(7));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        assert!(t.to_json().contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        off.span("outer", None, |t| t.span("inner", None, |_| ()));
        assert!(off.spans().is_empty());
    }
}
