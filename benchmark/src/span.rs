//! Spans around the calls the benchmark makes into each layer.
//!
//! Every call is timed (the walls feed the metrics either way); a span is
//! *recorded* — name, start, end, parent, rep — only while recording is on,
//! which is what a traced run switches. Spans stay in memory until the run
//! ends. A span's self time is its duration minus the part of that interval
//! its direct children cover.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The rep the span belongs to (0 = outside any rep).
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
pub struct Spans {
    epoch: Instant,
    recording: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(recording: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            recording,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Tags the spans that follow with a rep identifier.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f`, returning its value and its wall time in seconds; records a
    /// span named `name` (child of the innermost open span) when recording.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let value = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (value, (end - start).as_secs_f64())
    }

    /// [`Spans::timed`] without the wall time.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.timed(name, f).0
    }

    /// The span file: one object per span plus its derived self time.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("rep", Json::Int(u64::from(s.rep))),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ns", Json::Int(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its direct children's intervals (clipped to the span), so overlapping
/// children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),       // overlaps a by 10
            span("a.inner", 15, 35, Some(1)), // nested: counted against a only
            span("c", 90, 120, Some(0)),      // sticks out of root: clipped to 10
            span("alone", 200, 250, None),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 20);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 20);
        assert_eq!(selfs[5], 50);
    }

    #[test]
    fn recorder_nests_spans_and_skips_them_when_off() {
        let mut spans = Spans::new(true);
        spans.set_rep(3);
        let (v, wall) = spans.timed("outer", |s| s.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(wall >= 0.0);
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[0].name, "outer");
        assert_eq!(spans.spans()[1].parent, Some(0));
        assert_eq!(spans.spans()[1].rep, 3);
        assert!(spans.spans()[0].start_ns <= spans.spans()[1].start_ns);
        assert!(spans.spans()[1].end_ns <= spans.spans()[0].end_ns);

        spans.set_recording(false);
        assert_eq!(spans.span("unrecorded", |_| 1), 1);
        assert_eq!(spans.spans().len(), 2);
        let file = spans.to_json().render();
        assert!(file.contains("\"name\": \"inner\""));
    }
}
