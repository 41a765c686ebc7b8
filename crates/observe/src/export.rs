//! Exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto).
//!
//! Every span of the one span pass ([`crate::span`]) becomes a complete
//! (`ph:"X"`) slice, so the retroactively-emitted spans (queue wait is
//! stamped at service start, covering the wait that already happened)
//! need no monotone event order; wait-state spans render on a separate
//! thread track per lane so they never overlap the call slices of the
//! same lane. A trace whose rings overwrote events is **marked
//! truncated** — the pass's [`Loss`] rides in `otherData` (rendered by
//! [`loss_json`]) and in [`ChromeTrace::loss`] so no report reads as
//! complete when it isn't.

use crate::json::Json;
use crate::ring::{EventKind, Recorder};
use crate::span::{loss_json, Loss, Span};

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
    /// What the capture lost: the trace is truncated when
    /// `loss.ring_dropped > 0`, and says so.
    pub loss: Loss,
}

fn us(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_US
}

/// `s` as a slice of `lane`'s track — or of the lane's own wait track
/// for a wait span, which can overlap earlier call slices in wall time.
fn slice(lane: usize, s: &Span) -> Json {
    let wait = if s.kind.is_wait() { " wait" } else { "" };
    Json::obj()
        .field("name", s.kind.name())
        .field("ph", "X")
        .field("pid", 1u64)
        .field("tid", format!("lane {lane}{wait}"))
        .field("ts", us(s.start))
        .field("dur", us(s.end - s.start))
        .field("args", Json::obj().field("corr", s.corr))
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
/// When the rings dropped events the document carries `"truncated":
/// true` and the pass's loss counts, and [`ChromeTrace::loss`] returns
/// them — the explicit alternative to silently presenting a partial
/// trace.
pub fn chrome_trace(rec: &Recorder) -> ChromeTrace {
    let (lanes, pass) = rec.capture(usize::MAX);
    let mut events = Vec::new();
    for (lane, (held, spans)) in lanes.iter().zip(&pass.lanes).enumerate() {
        events.extend(spans.iter().map(|s| slice(lane, s)));
        let tid = format!("lane {lane}");
        for ev in held {
            if let EventKind::Instant(kind) = ev.kind {
                events.push(instant(kind.name(), tid.clone(), us(ev.t), ev.corr));
            }
        }
    }

    let loss = pass.loss;
    let exported = events.len() as u64;
    let doc = Json::obj()
        .field("displayTimeUnit", "ns")
        .field(
            "otherData",
            Json::obj()
                .field("truncated", loss.ring_dropped > 0)
                .field("loss", loss_json(&loss)),
        )
        .field("traceEvents", Json::Arr(events));
    ChromeTrace {
        json: format!("{doc}\n"),
        events: exported,
        loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{InstantKind, SpanKind};

    #[test]
    fn exported_trace_is_valid_json_with_expected_slices() {
        let rec = Recorder::new(64);
        rec.begin(0, SpanKind::Call, 1000, 1);
        rec.span(0, SpanKind::Handler, 1200, 1800, 1);
        rec.end(0, SpanKind::Call, 2000, 1);
        rec.span(1, SpanKind::QueueWait, 0, 500, 2);
        rec.instant(1, InstantKind::Retry, 700, 2);
        let t = chrome_trace(&rec);
        Json::parse(&t.json).expect("exported trace must be JSON");
        assert_eq!(t.events, 4, "3 slices + 1 instant");
        assert_eq!(t.loss, Loss::default());
        assert!(t.json.contains("\"name\":\"handler\""));
        assert!(t.json.contains("lane 1 wait"), "wait spans get own track");
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
        assert_eq!(
            t.loss.ring_dropped, 4,
            "8 complete spans into 4 slots drop 4"
        );
        assert!(t.json.contains("\"truncated\":true"));
        assert!(t.json.contains("\"loss\":{\"ring_dropped\":4,"));
    }

    #[test]
    fn unmatched_ends_are_counted_not_exported() {
        let rec = Recorder::new(16);
        rec.end(0, SpanKind::Handler, 50, 1); // Nothing open.
        rec.begin(0, SpanKind::Call, 60, 2); // Never closed.
        let t = chrome_trace(&rec);
        Json::parse(&t.json).unwrap();
        assert_eq!(t.events, 0);
        assert_eq!((t.loss.unmatched, t.loss.unclosed), (1, 1));
    }
}
