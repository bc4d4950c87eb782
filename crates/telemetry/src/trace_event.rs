//! Chrome trace-event JSON builder (DESIGN.md §12).
//!
//! Emits the [Trace Event Format] subset that Perfetto and
//! `chrome://tracing` load: duration begin/end pairs (`ph: "B"`/`"E"`),
//! complete events (`ph: "X"`), counters (`ph: "C"`), and thread-name
//! metadata (`ph: "M"`). Timestamps are microseconds; one *track* is one
//! `(pid, tid)` pair — the exporters here use a single pid and one tid
//! per worker/engine thread.
//!
//! Each event is built as a `secpref_types::json` object and rendered
//! when it is pushed. [`validate_trace_json`] is the builder's
//! counterpart: it parses a finished document with the same JSON module
//! and checks the structural invariants Perfetto needs. Span traces
//! embed wall-clock durations, so they are validated structurally
//! instead of byte-compared.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Examples
//!
//! ```
//! use secpref_telemetry::TraceBuilder;
//!
//! let mut t = TraceBuilder::new();
//! t.thread_name(1, "worker-0");
//! t.begin(1, "job", 10, &[("key", "abc")]);
//! t.end(1, 42);
//! let json = t.finish();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use secpref_types::json::{obj, parse, Json};
use std::collections::{HashMap, HashSet};

/// Process id used for every emitted event: the exporters model one
/// process with one track per thread.
pub const TRACE_PID: u32 = 1;

/// Incremental builder for a trace-event JSON document.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    /// Each event, rendered when it was pushed.
    events: Vec<String>,
}

/// String-valued `args` as a JSON object.
fn args_obj(args: &[(&str, &str)]) -> Json {
    obj(args
        .iter()
        .map(|&(k, v)| (k, Json::Str(v.to_string())))
        .collect())
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        TraceBuilder { events: Vec::new() }
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders one event: `ph`, `pid` and `tid`, then `fields`.
    fn push(&mut self, ph: &str, tid: u32, fields: Vec<(&str, Json)>) {
        let head = [
            ("ph", Json::Str(ph.to_string())),
            ("pid", Json::UInt(TRACE_PID.into())),
            ("tid", Json::UInt(tid.into())),
        ];
        self.events
            .push(obj(head.into_iter().chain(fields).collect()).to_string());
    }

    /// Names track `tid` (Perfetto shows this as the lane label).
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        self.push(
            "M",
            tid,
            vec![
                ("name", Json::Str("thread_name".to_string())),
                ("args", args_obj(&[("name", name)])),
            ],
        );
    }

    /// Opens a duration span on track `tid` (`ph: "B"`).
    pub fn begin(&mut self, tid: u32, name: &str, ts_us: u64, args: &[(&str, &str)]) {
        self.push(
            "B",
            tid,
            vec![
                ("ts", Json::UInt(ts_us)),
                ("name", Json::Str(name.to_string())),
                ("args", args_obj(args)),
            ],
        );
    }

    /// Closes the innermost open span on track `tid` (`ph: "E"`).
    pub fn end(&mut self, tid: u32, ts_us: u64) {
        self.push("E", tid, vec![("ts", Json::UInt(ts_us))]);
    }

    /// A complete span (`ph: "X"`) of `dur_us` microseconds.
    pub fn complete(
        &mut self,
        tid: u32,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&str, &str)],
    ) {
        self.push(
            "X",
            tid,
            vec![
                ("ts", Json::UInt(ts_us)),
                ("dur", Json::UInt(dur_us)),
                ("name", Json::Str(name.to_string())),
                ("args", args_obj(args)),
            ],
        );
    }

    /// A counter sample (`ph: "C"`): series `series` of counter `name`
    /// takes `value` at `ts_us`.
    pub fn counter(&mut self, tid: u32, name: &str, ts_us: u64, series: &str, value: u64) {
        self.push(
            "C",
            tid,
            vec![
                ("ts", Json::UInt(ts_us)),
                ("name", Json::Str(name.to_string())),
                ("args", obj(vec![(series, Json::UInt(value))])),
            ],
        );
    }

    /// Renders the finished `{"traceEvents": [...]}` document.
    pub fn finish(self) -> String {
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            self.events.join(",")
        )
    }
}

/// Structural statistics of a validated trace-event document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in the `traceEvents` array (metadata included).
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying timed events.
    pub tracks: usize,
}

/// Validates an exported Chrome trace-event JSON document.
///
/// Checks that the document parses, that every event carries the
/// required fields for its phase, that every `B` (span begin) has a
/// matching `E` (span end) on the same `(pid, tid)` track with a
/// non-decreasing timestamp, and that per-track timestamps are monotone
/// (Perfetto tolerates little else). Returns the document's stats.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_trace_json(text: &str) -> Result<TraceStats, String> {
    let doc = parse(text.trim()).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    // Per-track open-span stack (B timestamps) and last-seen timestamp.
    let mut open: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    let mut tracks: HashSet<(u64, u64)> = HashSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(|p| p.as_u64())
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let track = (pid, tid);
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("event {i}: ph {ph} missing ts"))?;
        let prev = last_ts.entry(track).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i}: track {track:?} timestamp regresses ({ts} < {prev})"
            ));
        }
        *prev = ts;
        tracks.insert(track);
        match ph {
            "B" => open.entry(track).or_default().push(ts),
            "E" => {
                let begin = open
                    .get_mut(&track)
                    .and_then(Vec::pop)
                    .ok_or_else(|| format!("event {i}: E without open B on track {track:?}"))?;
                if ts < begin {
                    return Err(format!(
                        "event {i}: span ends ({ts}) before it begins ({begin})"
                    ));
                }
            }
            "X" => {
                ev.get("dur")
                    .and_then(|d| d.as_u64())
                    .ok_or_else(|| format!("event {i}: X missing dur"))?;
            }
            "C" => {}
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for (track, stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "track {track:?} has {} unclosed B span(s)",
                stack.len()
            ));
        }
    }
    Ok(TraceStats {
        events: events.len(),
        tracks: tracks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_all_phase_kinds() {
        let mut t = TraceBuilder::new();
        t.thread_name(0, "engine");
        t.begin(0, "sweep", 0, &[("jobs", "6")]);
        t.complete(0, "dedup", 1, 5, &[]);
        t.counter(0, "cells", 7, "done", 3);
        t.end(0, 100);
        assert_eq!(t.len(), 5);
        let json = t.finish();
        for ph in [
            "\"ph\":\"M\"",
            "\"ph\":\"B\"",
            "\"ph\":\"X\"",
            "\"ph\":\"C\"",
            "\"ph\":\"E\"",
        ] {
            assert!(json.contains(ph), "missing {ph} in {json}");
        }
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn every_builder_method_renders_the_pinned_bytes() {
        let mut t = TraceBuilder::new();
        t.thread_name(2, "worker \"0\"");
        t.begin(2, "job", 10, &[("key", "q\"b\\n\nc\u{1}"), ("k2", "v")]);
        t.complete(2, "simulate", 12, 30, &[("cell", "x")]);
        t.counter(2, "cells", 42, "done", 7);
        t.end(2, 50);
        assert_eq!(
            t.finish(),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"worker \"0\""}},"#,
                r#"{"ph":"B","pid":1,"tid":2,"ts":10,"name":"job","#,
                r#""args":{"key":"q\"b\\n\nc\u0001","k2":"v"}},"#,
                r#"{"ph":"X","pid":1,"tid":2,"ts":12,"dur":30,"name":"simulate","args":{"cell":"x"}},"#,
                r#"{"ph":"C","pid":1,"tid":2,"ts":42,"name":"cells","args":{"done":7}},"#,
                r#"{"ph":"E","pid":1,"tid":2,"ts":50}"#,
                r#"],"displayTimeUnit":"ms"}"#,
            )
        );
    }

    #[test]
    fn validator_accepts_builder_output() {
        let mut t = TraceBuilder::new();
        t.thread_name(0, "engine");
        t.thread_name(1, "worker \"0\"");
        t.begin(
            0,
            "execute",
            10,
            &[("key", "q\"b\\n\nc\u{1}"), ("jobs", "2")],
        );
        t.complete(1, "simulate", 12, 30, &[("key", "abc")]);
        t.counter(0, "cells", 42, "done", 1);
        t.end(0, 50);
        let text = t.finish();
        let stats = validate_trace_json(&text).expect("builder output is valid");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.tracks, 2);
        // The escaped strings come back out of the parser unchanged.
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let name = events[1].get("args").unwrap().get("name").unwrap();
        assert_eq!(name.as_str(), Some("worker \"0\""));
        let key = events[2].get("args").unwrap().get("key").unwrap();
        assert_eq!(key.as_str(), Some("q\"b\\n\nc\u{1}"));
    }

    #[test]
    fn validator_rejects_unbalanced_and_regressing_traces() {
        // Unbalanced: B without E.
        let mut t = TraceBuilder::new();
        t.begin(0, "open", 1, &[]);
        let err = validate_trace_json(&t.finish()).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");

        // E without B.
        let mut t = TraceBuilder::new();
        t.end(0, 5);
        let err = validate_trace_json(&t.finish()).unwrap_err();
        assert!(err.contains("E without open B"), "{err}");

        // Per-track timestamp regression.
        let mut t = TraceBuilder::new();
        t.complete(0, "a", 100, 1, &[]);
        t.complete(0, "b", 50, 1, &[]);
        let err = validate_trace_json(&t.finish()).unwrap_err();
        assert!(err.contains("regresses"), "{err}");

        // Different tracks keep independent clocks.
        let mut t = TraceBuilder::new();
        t.complete(0, "a", 100, 1, &[]);
        t.complete(1, "b", 50, 1, &[]);
        assert!(validate_trace_json(&t.finish()).is_ok());

        // Garbage in, error out.
        assert!(validate_trace_json("not json").is_err());
        assert!(validate_trace_json("{}").is_err());
    }

    #[test]
    fn escapes_special_characters() {
        let mut t = TraceBuilder::new();
        t.begin(0, "a\"b\\c\nd", 0, &[("k\t", "v\u{1}")]);
        let json = t.finish();
        assert!(json.contains("a\\\"b\\\\c\\nd"));
        assert!(json.contains("k\\t"));
        assert!(json.contains("\\u0001"));
    }

    #[test]
    fn empty_trace_is_valid_shell() {
        let t = TraceBuilder::new();
        assert!(t.is_empty());
        assert_eq!(
            t.finish(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
