//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark times goes through [`Recorder::timed`],
//! which always measures and, in a traced run, also keeps a span. The
//! spans are written out when the run ends; an untraced run keeps none,
//! so the end-to-end numbers carry no recording cost.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Counts taken at this boundary (tuples, bytes, frames).
    pub counts: Vec<(String, f64)>,
}

pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds;
    /// records a span named `name` under the innermost open span when
    /// tracing is on.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                counts: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(i) = slot {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.open.pop();
        }
        (out, secs)
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].counts.push((key.to_string(), value));
        }
    }

    /// Self time per span: its duration minus the part of it covered by
    /// its direct children (children never overlap — one driving thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as a JSON array; every span carries the run's
    /// `workload` so spans of one traced run share an identifier.
    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(&s.name)),
                        ("workload", Json::str(workload)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(self_ns as f64)),
                        (
                            "counts",
                            Json::obj(s.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_computes_self_time() {
        let mut rec = Recorder::new(true);
        let ((), outer) = rec.timed("outer", |rec| {
            rec.count("tuples", 3.0);
            rec.timed("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.timed("b", |rec| {
                rec.timed("b.inner", |_| ());
            });
        });
        assert!(outer >= 0.002);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b", "b.inner"]);
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert_eq!(rec.spans()[0].counts, [("tuples".to_string(), 3.0)]);

        let own = rec.self_ns();
        let dur = |i: usize| rec.spans()[i].end_ns - rec.spans()[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[2], dur(2) - dur(3));
        assert_eq!(own[1], dur(1));
        assert_eq!(rec.to_json("w").as_arr().map(<[_]>::len), Some(4));
    }

    #[test]
    fn disabled_recorder_still_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.timed("x", |rec| {
            rec.count("ignored", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }
}
