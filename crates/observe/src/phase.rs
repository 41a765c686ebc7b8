//! Phase attribution: folding a capture's spans into a per-phase cycle
//! breakdown — a software Figure 7 for any recorded run.
//!
//! The fold reads the one span pass ([`crate::span`]) and charges every
//! span its **self time** (duration minus the time of the spans nested
//! in it) to its kind and to its stack path (`call;handler`, outermost
//! frame first), which is the run's flamegraph in exact cycles: a
//! path's leaf frame is the phase its cycles went to, so the leaf sums
//! of [`PhaseProfile::stacks`] are [`PhaseProfile::phases`]. DESIGN.md
//! §18 has the rules.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::iter::successors;

use sb_sim::Cycles;

use crate::ring::{Event, SpanKind};
use crate::span::{span_pass, Loss, SpanPass};

/// The folded per-phase totals of a recorded run.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Self-cycles charged to each span kind.
    pub phases: BTreeMap<&'static str, Cycles>,
    /// Self-cycles charged to each stack path, outermost frame first
    /// (`call;handler`). Wait spans (queue wait, backoff, ring wait) are
    /// their own root frame: they are stamped retroactively over time
    /// that other spans own, so no stack owns them.
    pub stacks: BTreeMap<String, Cycles>,
    /// End-to-end calls seen: `Call` spans nested in no other `Call`.
    pub calls: u64,
    /// Sum of those calls' durations — the end-to-end cycles the phases
    /// decompose.
    pub end_to_end: Cycles,
    /// What the capture lost; lost spans are charged nowhere.
    pub loss: Loss,
}

impl PhaseProfile {
    /// Folds every span of `pass` into one profile.
    pub fn of(pass: &SpanPass) -> PhaseProfile {
        let mut profile = fold(pass, |_| ()).remove(&()).unwrap_or_default();
        profile.loss = pass.loss;
        profile
    }

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
        for (path, cycles) in &other.stacks {
            *self.stacks.entry(path.clone()).or_insert(0) += cycles;
        }
        self.calls += other.calls;
        self.end_to_end += other.end_to_end;
        self.loss.merge(&other.loss);
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

    /// [`PhaseProfile::stacks`] as collapsed-stack lines under the root
    /// frame `root` (`root;call;handler cycles`), the format
    /// `flamegraph.pl` and speedscope ingest. Paths charged no cycles
    /// are left out.
    pub fn collapsed(&self, root: &str) -> String {
        let mut out = String::new();
        for (path, &cycles) in &self.stacks {
            if cycles > 0 {
                let _ = writeln!(out, "{root};{path} {cycles}");
            }
        }
        out
    }
}

/// Folds every span of `pass` into the profile of `key(its corr)`, and
/// charges each torn request's loss to its profile too.
fn fold<K: Ord>(pass: &SpanPass, mut key: impl FnMut(u64) -> K) -> BTreeMap<K, PhaseProfile> {
    let mut parts: BTreeMap<K, PhaseProfile> = BTreeMap::new();
    let mut path = String::new();
    let mut frames: Vec<SpanKind> = Vec::new();
    for spans in &pass.lanes {
        // Children close before their parent, so each span's nested
        // time is complete when the walk reaches it.
        let mut nested: Vec<Cycles> = vec![0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            frames.clear();
            frames.extend(successors(s.parent, |&p| spans[p].parent).map(|p| spans[p].kind));
            path.clear();
            for kind in frames.iter().rev().filter(|_| !s.kind.is_wait()) {
                path.push_str(kind.name());
                path.push(';');
            }
            path.push_str(s.kind.name());
            let part = parts.entry(key(s.corr)).or_default();
            let cycles = dur.saturating_sub(nested[i]);
            *part.phases.entry(s.kind.name()).or_insert(0) += cycles;
            // A path already seen is charged without allocating it again.
            match part.stacks.get_mut(&path) {
                Some(total) => *total += cycles,
                None => drop(part.stacks.insert(path.clone(), cycles)),
            }
            if s.kind == SpanKind::Call && !frames.contains(&SpanKind::Call) {
                part.calls += 1;
                part.end_to_end += dur;
            }
            if let Some(p) = s.parent {
                nested[p] += dur;
            }
        }
    }
    for (corr, loss) in &pass.torn {
        parts.entry(key(*corr)).or_default().loss.merge(loss);
    }
    parts
}

/// Folds every lane's events (as returned by
/// `Recorder::events(lane)` for `0..lane_count`) into one profile.
pub fn attribute(events_by_lane: &[Vec<Event>]) -> PhaseProfile {
    PhaseProfile::of(&span_pass(events_by_lane, &[]))
}

/// Folds every lane's events like [`attribute`], into one profile per
/// `key(corr)` — e.g. the tenant each request billed. Each span is
/// charged to its own request's part, and each part carries the loss of
/// its requests, so the parts merge back to [`attribute`]'s profile
/// exactly.
pub fn attribute_by_corr<K: Ord>(
    events_by_lane: &[Vec<Event>],
    key: impl FnMut(u64) -> K,
) -> BTreeMap<K, PhaseProfile> {
    fold(&span_pass(events_by_lane, &[]), key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

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
        assert_eq!(p.loss, Loss::default());
        assert_eq!(
            p.collapsed("sky"),
            "sky;call;handler 50\nsky;call;switch 20\nsky;call;trampoline 30\n",
            "the fully delegated call frame has no line of its own"
        );
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
        let pass = span_pass(std::slice::from_ref(&lane), &[]);
        assert_eq!((pass.lanes[0].len(), pass.loss), (4, Loss::default()));
        let stacks: Vec<(&str, Cycles)> = p.stacks.iter().map(|(s, &c)| (s.as_str(), c)).collect();
        assert_eq!(
            stacks,
            [
                ("call", 20),
                ("call;handler", 50),
                ("call;switch", 10),
                ("call;trampoline", 20)
            ],
            "a leaf frame sits under the span open around it"
        );
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
    fn wait_spans_fold_as_their_own_root_frame() {
        let lane = vec![
            b(0, SpanKind::QueueWait),
            e(40, SpanKind::QueueWait),
            b(40, SpanKind::Call),
            e(90, SpanKind::Call),
            b(90, SpanKind::Doorbell),
            Event {
                t: 90,
                corr: 0,
                kind: EventKind::Complete(SpanKind::RingWait, 15),
            },
            e(120, SpanKind::Doorbell),
        ];
        let p = attribute(&[lane]);
        assert_eq!(p.end_to_end, 50);
        assert_eq!(p.total(), 120);
        assert_eq!(
            p.collapsed("x"),
            "x;call 50\nx;doorbell 15\nx;queue_wait 40\nx;ring_wait 15\n",
            "a wait is its own root frame, even inside an open span"
        );
    }

    #[test]
    fn mismatched_end_is_counted_not_charged() {
        let lane = vec![
            b(0, SpanKind::Call),
            e(10, SpanKind::Handler), // No handler open.
            e(20, SpanKind::Call),
        ];
        let p = attribute(std::slice::from_ref(&lane));
        assert_eq!(p.loss.unmatched, 1);
        assert_eq!(p.calls, 1, "the call still folds");
        assert_ne!(p.loss, Loss::default());
    }

    #[test]
    fn validator_accepts_clean_nesting_and_rejects_open_tails() {
        let ok = vec![
            b(0, SpanKind::Call),
            b(1, SpanKind::Switch),
            e(2, SpanKind::Switch),
            e(3, SpanKind::Call),
        ];
        let pass = span_pass(&[ok], &[]);
        assert_eq!((pass.lanes[0].len(), pass.loss), (2, Loss::default()));
        let open = vec![b(0, SpanKind::Call)];
        assert_eq!(span_pass(&[open], &[]).loss.unclosed, 1);
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
        assert_eq!(merged.stacks, one.stacks);
        assert_eq!(merged.in_call_total(), one.in_call_total());
    }

    #[test]
    fn corr_parts_fold_back_to_the_whole() {
        let ev = |t, corr, kind| Event { t, corr, kind };
        let call = |t: Cycles, corr: u64| {
            [
                ev(t, corr, EventKind::Begin(SpanKind::Call)),
                ev(
                    t + 10,
                    corr,
                    EventKind::Complete(SpanKind::Handler, 30 + corr as u32),
                ),
                ev(t + 60, corr, EventKind::End(SpanKind::Call)),
            ]
        };
        let lanes = vec![
            [call(0, 1), call(100, 2), call(200, 3)].concat(),
            call(0, 4).to_vec(),
        ];
        let parts = attribute_by_corr(&lanes, |corr| corr % 2);
        assert_eq!(parts.keys().copied().collect::<Vec<_>>(), [0, 1]);
        assert_eq!((parts[&0].calls, parts[&1].calls), (2, 2));
        let mut merged = PhaseProfile::default();
        for part in parts.values() {
            merged.merge(part);
        }
        let whole = attribute(&lanes);
        assert_eq!(merged.stacks, whole.stacks);
        assert_eq!(merged.phases, whole.phases);
        assert_eq!(merged.end_to_end, whole.end_to_end);
        assert_eq!(whole.stacks["call;handler"], 4 * 30 + 1 + 2 + 3 + 4);

        // Another request's events inside a call split nothing: Begin
        // and End pair lane-wide, each span is charged to its own
        // request, and the parts still merge to the whole.
        let torn = vec![
            ev(0, 1, EventKind::Begin(SpanKind::Call)),
            ev(10, 2, EventKind::Complete(SpanKind::Handler, 5)),
            ev(60, 1, EventKind::End(SpanKind::Call)),
        ];
        let parts = attribute_by_corr(std::slice::from_ref(&torn), |corr| corr);
        assert_eq!((parts[&1].loss, parts[&1].calls), (Loss::default(), 1));
        assert_eq!(parts[&1].stacks["call"], 55);
        assert_eq!(parts[&2].stacks["call;handler"], 5);
        let mut merged = parts[&1].clone();
        merged.merge(&parts[&2]);
        assert_eq!(merged.stacks, attribute(&[torn]).stacks);
    }

    #[test]
    fn multiple_lanes_accumulate() {
        let lane = vec![b(0, SpanKind::Call), e(10, SpanKind::Call)];
        let p = attribute(&[lane.clone(), lane]);
        assert_eq!(p.calls, 2);
        assert_eq!(p.end_to_end, 20);
    }
}
