//! Exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto) plus a tiny standalone JSON validity checker.
//!
//! Begin/End pairs are folded into complete (`ph:"X"`) slices so the
//! retroactively-emitted spans (queue wait is stamped at service start,
//! covering the wait that already happened) need no monotone event
//! order; wait-state spans render on a separate thread track per lane so
//! they never overlap the call slices of the same lane. A trace whose
//! rings overwrote events is **marked truncated and warned about** —
//! the drop count rides in `otherData` so no report reads as complete
//! when it isn't.

use std::fmt::Write as _;

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

/// Whether `kind` renders on the lane's wait track instead of its call
/// track (wait spans can overlap earlier call slices in wall time).
fn is_wait(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::QueueWait | SpanKind::Backoff | SpanKind::RingWait
    )
}

fn push_slice(
    out: &mut String,
    first: &mut bool,
    name: &str,
    tid: String,
    t0: u64,
    t1: u64,
    corr: u64,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "\n  {{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":\"{tid}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"corr\":{corr}}}}}",
        us(t0),
        us(t1.saturating_sub(t0)),
    );
}

fn push_instant(out: &mut String, first: &mut bool, name: &str, tid: String, t: f64, corr: u64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "\n  {{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":\"{tid}\",\"ts\":{t:.3},\"args\":{{\"corr\":{corr}}}}}",
    );
}

/// Renders everything `rec` holds as Chrome trace-event JSON.
///
/// When the rings dropped events, a warning is printed to stderr and the
/// document carries `"truncated": true` plus the drop count — the
/// explicit alternative to silently presenting a partial trace.
pub fn chrome_trace(rec: &Recorder) -> ChromeTrace {
    let mut body = String::new();
    let mut first = true;
    let mut events = 0u64;
    let mut unmatched = 0u64;

    for lane in 0..rec.lane_count() {
        let evs = rec.events(lane);
        let mut stack: Vec<(SpanKind, u64, u64)> = Vec::new();
        for ev in &evs {
            match ev.kind {
                EventKind::Begin(kind) => stack.push((kind, ev.t, ev.corr)),
                EventKind::End(kind) => {
                    match stack.last() {
                        Some(&(open, _, _)) if open == kind => {}
                        _ => {
                            unmatched += 1;
                            continue;
                        }
                    }
                    let (_, t0, corr) = stack.pop().expect("matched above");
                    let tid = if is_wait(kind) {
                        format!("lane {lane} wait")
                    } else {
                        format!("lane {lane}")
                    };
                    push_slice(&mut body, &mut first, kind.name(), tid, t0, ev.t, corr);
                    events += 1;
                }
                EventKind::Instant(kind) => {
                    push_instant(
                        &mut body,
                        &mut first,
                        kind.name(),
                        format!("lane {lane}"),
                        us(ev.t),
                        ev.corr,
                    );
                    events += 1;
                }
                EventKind::Complete(kind, dur) => {
                    let tid = if is_wait(kind) {
                        format!("lane {lane} wait")
                    } else {
                        format!("lane {lane}")
                    };
                    push_slice(
                        &mut body,
                        &mut first,
                        kind.name(),
                        tid,
                        ev.t,
                        ev.t + dur as u64,
                        ev.corr,
                    );
                    events += 1;
                }
            }
        }
        unmatched += stack.len() as u64;
    }

    for ev in rec.global_events() {
        // Fault events are sequence-stamped, not cycle-stamped; they get
        // their own track with the raw sequence as `ts`.
        push_instant(
            &mut body,
            &mut first,
            &format!("{}:{}", ev.point, ev.stage.name()),
            "faults".to_string(),
            ev.seq as f64,
            0,
        );
        events += 1;
    }

    let dropped = rec.dropped();
    let truncated = dropped > 0;
    if truncated {
        eprintln!(
            "warning: trace export is missing {dropped} event(s) overwritten in the ring; \
             the trace is marked truncated"
        );
    }
    let json = format!(
        "{{\n\"displayTimeUnit\":\"ns\",\n\"otherData\":{{\"truncated\":{truncated},\
         \"dropped_events\":{dropped},\"unmatched_events\":{unmatched}}},\
         \n\"traceEvents\":[{body}\n]\n}}\n"
    );
    ChromeTrace {
        json,
        events,
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

// --- a dependency-free JSON validity checker -----------------------------
//
// The workspace builds offline (no serde); tests and the chaos bin's
// drill still need to prove the exported document *is* JSON. This is a
// strict recursive-descent recogniser — it accepts exactly the JSON
// grammar, no extensions.

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("byte {}: expected {:?}", self.i, c as char))
        }
    }

    fn lit(&mut self, s: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(())
        } else {
            Err(format!("byte {}: expected {s}", self.i))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let e = self.peek().ok_or("truncated escape")?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                let h = self.peek().ok_or("truncated \\u escape")?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("byte {}: bad \\u digit", self.i));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(format!("byte {}: bad escape", self.i)),
                    }
                }
                0x00..=0x1f => return Err(format!("byte {}: raw control char", self.i)),
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(format!("byte {}: expected digit", self.i))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.ws();
                    self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.value()?;
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("byte {}: expected , or }}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("byte {}: expected , or ]", self.i)),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("byte {}: expected a JSON value", self.i)),
        }
    }
}

/// Checks that `s` is one complete JSON document.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i == p.b.len() {
        Ok(())
    } else {
        Err(format!("byte {}: trailing garbage", p.i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{FaultStage, InstantKind};

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[1,2,{\"b\":\"x\\n\"}],\"c\":true}",
            "  [ 0.25 , \"\\u00e9\" ] ",
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1 2",
            "\"unterminated",
            "{'a':1}",
            "NaN",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }

    #[cfg(feature = "trace")]
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
        validate_json(&t.json).expect("exported trace must be JSON");
        assert_eq!(t.events, 5, "3 slices + 1 instant + 1 fault");
        assert!(!t.truncated);
        assert_eq!(t.unmatched, 0);
        assert!(t.json.contains("\"name\":\"handler\""));
        assert!(t.json.contains("lane 1 wait"), "wait spans get own track");
        assert!(t.json.contains("handler_panic:fired"));
        assert!(t.json.contains("\"truncated\":false"));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn truncated_trace_is_marked_and_counted() {
        let rec = Recorder::new(4);
        for i in 0..8u64 {
            rec.span(0, SpanKind::Call, i * 10, i * 10 + 5, i);
        }
        let t = chrome_trace(&rec);
        validate_json(&t.json).expect("still JSON when truncated");
        assert!(t.truncated);
        assert_eq!(t.dropped, 4, "8 complete spans into 4 slots drop 4");
        assert!(t.json.contains("\"truncated\":true"));
        assert!(t.json.contains("\"dropped_events\":4"));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn unmatched_ends_are_counted_not_exported() {
        let rec = Recorder::new(16);
        rec.end(0, SpanKind::Handler, 50, 1); // Nothing open.
        rec.begin(0, SpanKind::Call, 60, 2); // Never closed.
        let t = chrome_trace(&rec);
        validate_json(&t.json).unwrap();
        assert_eq!(t.events, 0);
        assert_eq!(t.unmatched, 2);
        assert!(validate_recorder_nesting(&rec).is_err());
    }
}
