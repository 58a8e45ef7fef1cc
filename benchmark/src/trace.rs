//! An in-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own files only, around the calls
//! into each layer of the program: name, start, end, the span that caused it
//! and a request id (`flow/seq` for a relay operation, the part name for a
//! simulator scenario).  They are kept in memory and written out once, at
//! exit.  A span's *self time* is its duration minus the part of that
//! interval its child spans cover.
//!
//! Recording happens on the thread that drives the workload (the generator
//! thread for the relay workloads), so the recorder is a thread-local and
//! takes no lock.  While tracing is off, every entry point is one
//! thread-local flag test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Identifier of a recorded span.
pub type SpanId = u32;

struct Span {
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    req: Option<String>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open RAII spans, innermost last.
    stack: Vec<SpanId>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Switches recording on for the calling thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        });
    });
}

/// Whether the calling thread is recording.
#[cfg(test)]
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Closes its span when dropped.
pub struct Guard(Option<SpanId>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.stack.retain(|&open| open != id);
            }
        });
    }
}

/// Opens a span under the innermost open one; it ends when the guard drops.
pub fn span(name: &'static str) -> Guard {
    span_req(name, None)
}

/// [`span`] with a request id.
pub fn span_req(name: &'static str, req: Option<String>) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let now = rec.epoch.elapsed().as_nanos() as u64;
        let id = rec.spans.len() as SpanId;
        rec.spans.push(Span {
            parent: rec.stack.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            req,
        });
        rec.stack.push(id);
        Guard(Some(id))
    })
}

/// Records a span after the fact (its interval was timed by the caller),
/// under `parent` or, when `None`, the innermost open span.
pub fn record(
    name: &'static str,
    parent: Option<SpanId>,
    start: Instant,
    end: Instant,
    req: Option<String>,
) -> Option<SpanId> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let ns = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
        let id = rec.spans.len() as SpanId;
        rec.spans.push(Span {
            parent: parent.or(rec.stack.last().copied()),
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            req,
        });
        Some(id)
    })
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: duration minus what its children cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per-name totals of the recorded spans, largest self time first:
/// `(name, count, total ns, self ns)`.
pub fn summary() -> Vec<(&'static str, u64, u64, u64)> {
    RECORDER.with(|r| {
        let r = r.borrow();
        let Some(rec) = r.as_ref() else {
            return Vec::new();
        };
        let selfs = self_times(&rec.spans);
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in rec.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.3));
        rows
    })
}

/// The recorded spans and their per-name summary as a JSON document with
/// `header` fields first.
pub fn document(header: Vec<(String, Json)>) -> Json {
    let summary_rows = summary();
    RECORDER.with(|r| {
        let r = r.borrow();
        let spans: &[Span] = r.as_ref().map_or(&[], |rec| &rec.spans);
        let selfs = self_times(spans);
        let span_rows = spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj([
                    ("id", Json::from(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                    ),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self_ns)),
                    ("req", s.req.as_deref().map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        let mut doc = header;
        doc.push((
            "summary".to_string(),
            Json::Arr(
                summary_rows
                    .iter()
                    .map(|&(name, count, total, self_ns)| {
                        Json::obj([
                            ("name", Json::from(name)),
                            ("count", Json::from(count)),
                            ("total_ns", Json::from(total)),
                            ("self_ns", Json::from(self_ns)),
                        ])
                    })
                    .collect(),
            ),
        ));
        doc.push(("spans".to_string(), Json::Arr(span_rows)));
        Json::Obj(doc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_of_children_is_clipped_and_not_double_counted() {
        assert_eq!(covered(vec![], 0, 100), 0);
        assert_eq!(covered(vec![(10, 20), (30, 40)], 0, 100), 20);
        // Overlapping children count once; overhang is clipped.
        assert_eq!(covered(vec![(10, 30), (20, 50), (90, 150)], 0, 100), 50);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        assert!(!enabled());
        let _g = span("ignored");
        assert!(summary().is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        enable();
        let t0 = Instant::now();
        {
            let _w = span("workload");
            {
                let _t = span_req("trial", Some("0".into()));
                let op = record(
                    "op",
                    None,
                    t0,
                    t0 + Duration::from_micros(50),
                    Some("7/9".into()),
                );
                record("gen.send", op, t0, t0 + Duration::from_micros(10), None);
            }
        }
        let rows = summary();
        let get = |n: &str| rows.iter().find(|r| r.0 == n).copied().unwrap();
        assert_eq!(get("op").1, 1);
        // op covers 50 µs of which its child covers 10.
        assert_eq!(get("op").2 - get("op").3, get("gen.send").2);
        let doc = document(vec![("workload".to_string(), Json::from("t"))]).to_string();
        assert!(doc.contains("\"name\":\"gen.send\""));
        assert!(doc.contains("\"req\":\"7/9\""));
        // `trial` is the parent of `op` (id 1 → id 2).
        assert!(doc.contains("\"id\":2,\"parent\":1,\"name\":\"op\""));
    }
}
