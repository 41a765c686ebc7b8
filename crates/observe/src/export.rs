//! Exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto).
//!
//! Begin/End pairs are folded into complete (`ph:"X"`) slices so the
//! retroactively-emitted spans (queue wait is stamped at service start,
//! covering the wait that already happened) need no monotone event
//! order; wait-state spans render on a separate thread track per lane so
//! they never overlap the call slices of the same lane. A trace whose
//! rings overwrote events is **marked truncated and warned about** —
//! the drop count rides in `otherData` so no report reads as complete
//! when it isn't.

use crate::json::Json;
use crate::phase::validate_nesting;
use crate::ring::{EventKind, Recorder, SpanKind};

/// Simulated cycles per microsecond on the modeled 4 GHz part — the
/// trace `ts` unit conversion.
pub const CYCLES_PER_US: f64 = 4000.0;

/// A rendered Chrome trace.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    /// The trace-event JSON document.
    pub json: String,
    /// Slices and instants exported.
    pub events: u64,
    /// Events the rings overwrote before export — when nonzero the
    /// trace is incomplete and says so.
    pub dropped: u64,
    /// Begin/End events that could not be folded into a slice.
    pub unmatched: u64,
    /// Whether the trace is missing events (`dropped > 0`).
    pub truncated: bool,
}

fn us(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_US
}

/// The thread track a span of `kind` renders on: wait spans get the
/// lane's own wait track (they can overlap earlier call slices in wall
/// time).
fn track(lane: usize, kind: SpanKind) -> String {
    if matches!(
        kind,
        SpanKind::QueueWait | SpanKind::Backoff | SpanKind::RingWait
    ) {
        format!("lane {lane} wait")
    } else {
        format!("lane {lane}")
    }
}

fn slice(name: &str, tid: String, t0: u64, t1: u64, corr: u64) -> Json {
    Json::obj()
        .field("name", name)
        .field("ph", "X")
        .field("pid", 1u64)
        .field("tid", tid)
        .field("ts", us(t0))
        .field("dur", us(t1.saturating_sub(t0)))
        .field("args", Json::obj().field("corr", corr))
}

fn instant(name: &str, tid: String, ts: f64, corr: u64) -> Json {
    Json::obj()
        .field("name", name)
        .field("ph", "i")
        .field("s", "t")
        .field("pid", 1u64)
        .field("tid", tid)
        .field("ts", ts)
        .field("args", Json::obj().field("corr", corr))
}

/// Renders everything `rec` holds as Chrome trace-event JSON.
///
/// When the rings dropped events, a warning is printed to stderr and the
/// document carries `"truncated": true` plus the drop count — the
/// explicit alternative to silently presenting a partial trace.
pub fn chrome_trace(rec: &Recorder) -> ChromeTrace {
    let mut events = Vec::new();
    let mut unmatched = 0u64;

    for lane in 0..rec.lane_count() {
        let mut stack: Vec<(SpanKind, u64, u64)> = Vec::new();
        for ev in &rec.events(lane) {
            match ev.kind {
                EventKind::Begin(kind) => stack.push((kind, ev.t, ev.corr)),
                EventKind::End(kind) => match stack.last() {
                    Some(&(open, t0, corr)) if open == kind => {
                        stack.pop();
                        events.push(slice(kind.name(), track(lane, kind), t0, ev.t, corr));
                    }
                    _ => unmatched += 1,
                },
                EventKind::Instant(kind) => events.push(instant(
                    kind.name(),
                    format!("lane {lane}"),
                    us(ev.t),
                    ev.corr,
                )),
                EventKind::Complete(kind, dur) => events.push(slice(
                    kind.name(),
                    track(lane, kind),
                    ev.t,
                    ev.t + dur as u64,
                    ev.corr,
                )),
            }
        }
        unmatched += stack.len() as u64;
    }

    // Fault events are sequence-stamped, not cycle-stamped; they get
    // their own track with the raw sequence as `ts`.
    for ev in rec.global_events() {
        events.push(instant(
            &format!("{}:{}", ev.point, ev.stage.name()),
            "faults".to_string(),
            ev.seq as f64,
            0,
        ));
    }

    let dropped = rec.dropped();
    let truncated = dropped > 0;
    if truncated {
        eprintln!(
            "warning: trace export is missing {dropped} event(s) overwritten in the ring; \
             the trace is marked truncated"
        );
    }
    let exported = events.len() as u64;
    let doc = Json::obj()
        .field("displayTimeUnit", "ns")
        .field(
            "otherData",
            Json::obj()
                .field("truncated", truncated)
                .field("dropped_events", dropped)
                .field("unmatched_events", unmatched),
        )
        .field("traceEvents", Json::Arr(events));
    ChromeTrace {
        json: format!("{doc}\n"),
        events: exported,
        dropped,
        unmatched,
        truncated,
    }
}

/// Validates the nesting of every lane's span stream (the exported trace
/// is well-formed iff this passes for every lane). Returns total spans.
pub fn validate_recorder_nesting(rec: &Recorder) -> Result<u64, String> {
    let mut spans = 0;
    for lane in 0..rec.lane_count() {
        spans += validate_nesting(&rec.events(lane)).map_err(|e| format!("lane {lane}: {e}"))?;
    }
    Ok(spans)
}

#[cfg(test)]
#[cfg(feature = "trace")]
mod tests {
    use super::*;
    use crate::ring::{FaultStage, InstantKind};

    #[test]
    fn exported_trace_is_valid_json_with_expected_slices() {
        let rec = Recorder::new(64);
        rec.begin(0, SpanKind::Call, 1000, 1);
        rec.span(0, SpanKind::Handler, 1200, 1800, 1);
        rec.end(0, SpanKind::Call, 2000, 1);
        rec.span(1, SpanKind::QueueWait, 0, 500, 2);
        rec.instant(1, InstantKind::Retry, 700, 2);
        rec.fault("handler_panic", FaultStage::Fired);
        let t = chrome_trace(&rec);
        Json::parse(&t.json).expect("exported trace must be JSON");
        assert_eq!(t.events, 5, "3 slices + 1 instant + 1 fault");
        assert!(!t.truncated);
        assert_eq!(t.unmatched, 0);
        assert!(t.json.contains("\"name\":\"handler\""));
        assert!(t.json.contains("lane 1 wait"), "wait spans get own track");
        assert!(t.json.contains("handler_panic:fired"));
        assert!(t.json.contains("\"truncated\":false"));
    }

    #[test]
    fn truncated_trace_is_marked_and_counted() {
        let rec = Recorder::new(4);
        for i in 0..8u64 {
            rec.span(0, SpanKind::Call, i * 10, i * 10 + 5, i);
        }
        let t = chrome_trace(&rec);
        Json::parse(&t.json).expect("still JSON when truncated");
        assert!(t.truncated);
        assert_eq!(t.dropped, 4, "8 complete spans into 4 slots drop 4");
        assert!(t.json.contains("\"truncated\":true"));
        assert!(t.json.contains("\"dropped_events\":4"));
    }

    #[test]
    fn unmatched_ends_are_counted_not_exported() {
        let rec = Recorder::new(16);
        rec.end(0, SpanKind::Handler, 50, 1); // Nothing open.
        rec.begin(0, SpanKind::Call, 60, 2); // Never closed.
        let t = chrome_trace(&rec);
        Json::parse(&t.json).unwrap();
        assert_eq!(t.events, 0);
        assert_eq!(t.unmatched, 2);
        assert!(validate_recorder_nesting(&rec).is_err());
    }
}
