//! Phase attribution: folding a lane's span stream into a per-phase
//! cycle breakdown — a software Figure 7 for any recorded run.
//!
//! The fold walks each lane's events in order with a span stack and
//! charges every span its **self time** (duration minus the time covered
//! by nested child spans). A SkyBridge call therefore decomposes into
//! trampoline / switch / marshal / handler self-cycles plus whatever the
//! `call` span itself didn't delegate (uninstrumented glue), and the sum
//! of all phases equals the sum of call durations by construction — the
//! property `tests/observe.rs::phases_fit_inside_their_calls` holds.

use std::collections::BTreeMap;

use sb_sim::Cycles;

use crate::ring::{Event, EventKind, SpanKind};

/// The folded per-phase totals of a recorded run.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Self-cycles charged to each span kind.
    pub phases: BTreeMap<&'static str, Cycles>,
    /// Completed `Call` spans seen.
    pub calls: u64,
    /// Sum of `Call` span durations — the end-to-end cycles the phases
    /// decompose.
    pub end_to_end: Cycles,
    /// `End` events that matched no open span of their kind (dropped
    /// begins after ring overwrite, or instrumentation bugs).
    pub unmatched: u64,
    /// Spans still open when a lane's stream ended.
    pub unclosed: u64,
}

impl PhaseProfile {
    /// Self-cycles charged to `kind` (0 when the phase never appeared).
    pub fn get(&self, kind: SpanKind) -> Cycles {
        self.phases.get(kind.name()).copied().unwrap_or(0)
    }

    /// Mean self-cycles per call for `kind` (0 when no calls completed).
    pub fn per_call(&self, kind: SpanKind) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.get(kind) as f64 / self.calls as f64
    }

    /// Total self-cycles across every phase. Queue-wait and backoff
    /// spans sit outside `Call` spans, so this can exceed
    /// [`PhaseProfile::end_to_end`]; restricted to the in-call phases it
    /// equals it exactly.
    pub fn total(&self) -> Cycles {
        self.phases.values().sum()
    }

    /// Accumulates another profile's totals into this one — the fold
    /// step of a chunked capture, where each harvested window is
    /// attributed while it still fits a ring and an arbitrarily long
    /// run gets an exact profile from bounded memory.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (phase, cycles) in &other.phases {
            *self.phases.entry(phase).or_insert(0) += cycles;
        }
        self.calls += other.calls;
        self.end_to_end += other.end_to_end;
        self.unmatched += other.unmatched;
        self.unclosed += other.unclosed;
    }

    /// Self-cycles of the phases nested inside calls (everything except
    /// the wait states — queue wait, backoff, ring wait — and the
    /// doorbell crossing shared across a ring batch) — the sum the
    /// acceptance gate compares to `end_to_end`.
    pub fn in_call_total(&self) -> Cycles {
        self.total()
            - self.get(SpanKind::QueueWait)
            - self.get(SpanKind::Backoff)
            - self.get(SpanKind::RingWait)
            - self.get(SpanKind::Doorbell)
    }
}

struct Open {
    kind: SpanKind,
    t0: Cycles,
    child: Cycles,
}

/// Folds one lane's event stream into `profile`.
fn fold_lane(events: &[Event], profile: &mut PhaseProfile) {
    let mut stack: Vec<Open> = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::Begin(kind) => stack.push(Open {
                kind,
                t0: ev.t,
                child: 0,
            }),
            EventKind::End(kind) => {
                match stack.last() {
                    Some(open) if open.kind == kind => {}
                    _ => {
                        profile.unmatched += 1;
                        continue;
                    }
                }
                let open = stack.pop().expect("matched above");
                let duration = ev.t.saturating_sub(open.t0);
                let self_time = duration.saturating_sub(open.child);
                *profile.phases.entry(kind.name()).or_insert(0) += self_time;
                if kind == SpanKind::Call {
                    profile.calls += 1;
                    profile.end_to_end += duration;
                }
                if let Some(parent) = stack.last_mut() {
                    parent.child += duration;
                }
            }
            EventKind::Complete(kind, dur) => {
                // A post-hoc leaf: its whole duration is self time, and
                // it is a child of whatever span is open around it.
                let dur = dur as Cycles;
                *profile.phases.entry(kind.name()).or_insert(0) += dur;
                if kind == SpanKind::Call {
                    profile.calls += 1;
                    profile.end_to_end += dur;
                }
                if let Some(parent) = stack.last_mut() {
                    parent.child += dur;
                }
            }
            EventKind::Instant(_) => {}
        }
    }
    profile.unclosed += stack.len() as u64;
}

/// Folds every lane's events (as returned by
/// `Recorder::events(lane)` for `0..lane_count`) into one profile.
pub fn attribute(events_by_lane: &[Vec<Event>]) -> PhaseProfile {
    let mut profile = PhaseProfile::default();
    for lane in events_by_lane {
        fold_lane(lane, &mut profile);
    }
    profile
}

/// Checks that a lane's span stream is well-formed: every `End` closes
/// an open span of the same kind and nothing is left open at the end.
/// Returns the number of complete spans on success.
pub fn validate_nesting(events: &[Event]) -> Result<u64, String> {
    let mut stack: Vec<SpanKind> = Vec::new();
    let mut spans = 0u64;
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Begin(kind) => stack.push(kind),
            EventKind::End(kind) => match stack.pop() {
                Some(open) if open == kind => spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: End({}) closes an open {}",
                        kind.name(),
                        open.name()
                    ));
                }
                None => {
                    return Err(format!("event {i}: End({}) with nothing open", kind.name()));
                }
            },
            EventKind::Complete(..) => spans += 1,
            EventKind::Instant(_) => {}
        }
    }
    if stack.is_empty() {
        Ok(spans)
    } else {
        Err(format!(
            "{} span(s) left open: {:?}",
            stack.len(),
            stack.iter().map(|k| k.name()).collect::<Vec<_>>()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(t: Cycles, k: SpanKind) -> Event {
        Event {
            t,
            corr: 0,
            kind: EventKind::Begin(k),
        }
    }

    fn e(t: Cycles, k: SpanKind) -> Event {
        Event {
            t,
            corr: 0,
            kind: EventKind::End(k),
        }
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_call_duration() {
        // call [0,100): trampoline [0,20), switch [20,30), handler
        // [30,80), switch [80,90), trampoline [90,100) — no glue gaps.
        let lane = vec![
            b(0, SpanKind::Call),
            b(0, SpanKind::Trampoline),
            e(20, SpanKind::Trampoline),
            b(20, SpanKind::Switch),
            e(30, SpanKind::Switch),
            b(30, SpanKind::Handler),
            e(80, SpanKind::Handler),
            b(80, SpanKind::Switch),
            e(90, SpanKind::Switch),
            b(90, SpanKind::Trampoline),
            e(100, SpanKind::Trampoline),
            e(100, SpanKind::Call),
        ];
        let p = attribute(&[lane]);
        assert_eq!(p.calls, 1);
        assert_eq!(p.end_to_end, 100);
        assert_eq!(p.get(SpanKind::Trampoline), 30);
        assert_eq!(p.get(SpanKind::Switch), 20);
        assert_eq!(p.get(SpanKind::Handler), 50);
        assert_eq!(p.get(SpanKind::Call), 0, "fully delegated call");
        assert_eq!(p.in_call_total(), p.end_to_end);
        assert_eq!((p.unmatched, p.unclosed), (0, 0));
    }

    #[test]
    fn complete_leaves_charge_like_begin_end_pairs() {
        let c = |t, k, dur| Event {
            t,
            corr: 0,
            kind: EventKind::Complete(k, dur),
        };
        let lane = vec![
            b(0, SpanKind::Call),
            c(0, SpanKind::Trampoline, 20),
            c(20, SpanKind::Switch, 10),
            c(30, SpanKind::Handler, 50),
            e(100, SpanKind::Call),
        ];
        let p = attribute(std::slice::from_ref(&lane));
        assert_eq!(p.get(SpanKind::Trampoline), 20);
        assert_eq!(p.get(SpanKind::Switch), 10);
        assert_eq!(p.get(SpanKind::Handler), 50);
        assert_eq!(p.get(SpanKind::Call), 20, "the uncovered tail is glue");
        assert_eq!(p.in_call_total(), p.end_to_end);
        assert_eq!(validate_nesting(&lane), Ok(4));
    }

    #[test]
    fn uninstrumented_glue_lands_on_the_call_span() {
        let lane = vec![
            b(0, SpanKind::Call),
            b(10, SpanKind::Handler),
            e(60, SpanKind::Handler),
            e(100, SpanKind::Call),
        ];
        let p = attribute(&[lane]);
        assert_eq!(p.get(SpanKind::Handler), 50);
        assert_eq!(p.get(SpanKind::Call), 50, "the gaps are the call's own");
        assert_eq!(p.in_call_total(), 100);
    }

    #[test]
    fn queue_wait_counts_outside_end_to_end() {
        let lane = vec![
            b(0, SpanKind::QueueWait),
            e(40, SpanKind::QueueWait),
            b(40, SpanKind::Call),
            e(90, SpanKind::Call),
        ];
        let p = attribute(&[lane]);
        assert_eq!(p.end_to_end, 50);
        assert_eq!(p.get(SpanKind::QueueWait), 40);
        assert_eq!(p.in_call_total(), 50);
        assert_eq!(p.total(), 90);
    }

    #[test]
    fn mismatched_end_is_counted_not_charged() {
        let lane = vec![
            b(0, SpanKind::Call),
            e(10, SpanKind::Handler), // No handler open.
            e(20, SpanKind::Call),
        ];
        let p = attribute(std::slice::from_ref(&lane));
        assert_eq!(p.unmatched, 1);
        assert_eq!(p.calls, 1, "the call still folds");
        assert!(validate_nesting(&lane).is_err());
    }

    #[test]
    fn validator_accepts_clean_nesting_and_rejects_open_tails() {
        let ok = vec![
            b(0, SpanKind::Call),
            b(1, SpanKind::Switch),
            e(2, SpanKind::Switch),
            e(3, SpanKind::Call),
        ];
        assert_eq!(validate_nesting(&ok), Ok(2));
        let open = vec![b(0, SpanKind::Call)];
        assert!(validate_nesting(&open).unwrap_err().contains("left open"));
    }

    #[test]
    fn merge_equals_attributing_one_stream() {
        let chunk1 = vec![
            b(0, SpanKind::Call),
            b(10, SpanKind::Handler),
            e(60, SpanKind::Handler),
            e(100, SpanKind::Call),
        ];
        let chunk2 = vec![
            b(100, SpanKind::Call),
            b(100, SpanKind::Switch),
            e(120, SpanKind::Switch),
            e(150, SpanKind::Call),
        ];
        let whole: Vec<Event> = chunk1.iter().chain(chunk2.iter()).copied().collect();
        let mut merged = attribute(&[chunk1]);
        merged.merge(&attribute(&[chunk2]));
        let one = attribute(&[whole]);
        assert_eq!(merged.calls, one.calls);
        assert_eq!(merged.end_to_end, one.end_to_end);
        assert_eq!(merged.phases, one.phases);
        assert_eq!(merged.in_call_total(), one.in_call_total());
    }

    #[test]
    fn multiple_lanes_accumulate() {
        let lane = vec![b(0, SpanKind::Call), e(10, SpanKind::Call)];
        let p = attribute(&[lane.clone(), lane]);
        assert_eq!(p.calls, 2);
        assert_eq!(p.end_to_end, 20);
    }
}
