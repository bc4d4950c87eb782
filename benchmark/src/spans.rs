//! Outside-in span recording: the benchmark opens a span around each of
//! its own calls into a crate (name, start, end, parent). Spans stay in
//! memory until the run ends; the untraced run records none.

use secpref_exp::json::Json;
use secpref_telemetry::TraceBuilder;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Workload-local id of what the span worked on (a cell, a kernel).
    pub what: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    /// Off for the whole untraced run, and for the plain rounds of a
    /// traced one ([`Spans::record`]).
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Spans::begin`]; `None` when recording is off.
pub type SpanId = Option<usize>;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between spans.
    pub fn record(&mut self, on: bool) {
        assert!(
            self.open.is_empty(),
            "no span may be open across the switch"
        );
        self.enabled = on;
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    pub fn begin(&mut self, name: &str, what: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            what: what.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_us = self.now_us();
    }

    /// Per span name: calls, total seconds, and self seconds (the span
    /// minus the part of it its child spans cover).
    pub fn summary(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_us - s.start_us;
            let e = out.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(child_us[i]) as f64 / 1e6;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.name.clone()),
                        Json::Str(s.what.clone()),
                        Json::UInt(s.start_us),
                        Json::UInt(s.end_us),
                        match s.parent {
                            Some(p) => Json::UInt(p as u64),
                            None => Json::Null,
                        },
                    ])
                })
                .collect(),
        )
    }
}

/// Reads back what [`Spans::to_json`] wrote.
pub fn spans_from_json(j: &Json) -> Vec<Span> {
    j.as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|s| {
            let a = s.as_arr()?;
            Some(Span {
                name: a.first()?.as_str()?.to_string(),
                what: a.get(1)?.as_str()?.to_string(),
                start_us: a.get(2)?.as_u64()?,
                end_us: a.get(3)?.as_u64()?,
                parent: a.get(4)?.as_u64().map(|p| p as usize),
            })
        })
        .collect()
}

/// Renders one track per workload as Chrome trace-event JSON. Spans of a
/// workload nest strictly (they were opened and closed on one thread),
/// so begin/end events replay in timestamp order.
pub fn trace_json(tracks: &[(String, Vec<Span>)]) -> String {
    let mut tb = TraceBuilder::new();
    for (tid, (workload, spans)) in tracks.iter().enumerate() {
        let tid = tid as u32;
        tb.thread_name(tid, workload);
        // Spans are stored in begin order, so a depth-first replay closes
        // every open span that is not an ancestor before the next begin.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while open.last().copied() != s.parent {
                match open.pop() {
                    Some(done) => tb.end(tid, spans[done].end_us),
                    None => break, // parent index out of range: treat as a root
                }
            }
            let parent = s.parent.map(|p| spans[p].name.as_str()).unwrap_or("");
            tb.begin(
                tid,
                &s.name,
                s.start_us,
                &[
                    ("workload", workload),
                    ("what", &s.what),
                    ("parent", parent),
                ],
            );
            open.push(i);
        }
        while let Some(done) = open.pop() {
            tb.end(tid, spans[done].end_us);
        }
    }
    tb.finish()
}
