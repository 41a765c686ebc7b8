//! Causal request tracing: span-tree assembly and critical paths.
//!
//! Every instrumented layer stamps its events with the request-scoped
//! correlation id (`WireHeader.corr`, propagated through nested
//! `direct_server_call`s by the SkyBridge core and through every trap
//! leg by the transports). This module folds the per-lane event rings
//! back into one tree per request, so a tail-latency outlier is
//! attributable to a specific hop and phase instead of a whole run.
//!
//! Assembly reads the one span pass (`sb_observe::span`, DESIGN.md
//! §12) and is honest about what it lost: every request the pass names
//! as torn — cut by ring overwrite, or holding an unmatched `End` or an
//! unclosed `Begin` — is *poisoned*: excluded and listed, never
//! presented as a smaller-but-plausible tree.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use sb_observe::{span_pass, Event, Loss, Recorder, SpanKind, SpanPass};
use sb_sim::Cycles;

/// One assembled span: a contiguous section of one lane's time,
/// containing the spans that ran inside it.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The lane (serving core) the span ran on.
    pub lane: usize,
    /// What the section was.
    pub kind: SpanKind,
    /// Lane-clock start, in simulated cycles.
    pub start: Cycles,
    /// Duration in cycles.
    pub dur: Cycles,
    /// Spans nested inside this one, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Cycles spent in this span itself, outside any child — the span's
    /// contribution to the critical path.
    pub fn self_time(&self) -> Cycles {
        let inner: Cycles = self.children.iter().map(|c| c.dur).sum();
        self.dur.saturating_sub(inner)
    }

    /// Spans in this subtree, including `self`.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }
}

/// One step of a request's critical path: a span's self-time, with
/// enough position to say *where* the cycles went.
#[derive(Debug, Clone, Copy)]
pub struct PathStep {
    /// Lane the cycles were spent on.
    pub lane: usize,
    /// Nesting depth (0 = root span).
    pub depth: usize,
    /// The phase.
    pub kind: SpanKind,
    /// Lane-clock start of the owning span.
    pub start: Cycles,
    /// Self-time cycles attributed to this step.
    pub cycles: Cycles,
}

/// Every span a single request touched, across lanes and hops, under
/// one correlation id.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The request-scoped trace id (`WireHeader.corr`).
    pub corr: u64,
    /// Top-level spans in start order — one `Call` for a direct hop,
    /// several for a client-side chain of sequential hops.
    pub roots: Vec<SpanNode>,
}

impl RequestTrace {
    /// Total cycles under the request's roots.
    pub fn total(&self) -> Cycles {
        self.roots.iter().map(|r| r.dur).sum()
    }

    /// Spans assembled for this request.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::span_count).sum()
    }

    /// The request's critical path: every span's self-time, in
    /// depth-first start order. With well-nested spans the step cycles
    /// sum back to [`RequestTrace::total`] exactly — the invariant the
    /// integration suite holds against the transport's own end-to-end
    /// clock.
    pub fn critical_path(&self) -> Vec<PathStep> {
        let mut steps = Vec::new();
        for root in &self.roots {
            walk(root, 0, &mut steps);
        }
        steps
    }

    /// Sum of the critical path's step cycles.
    pub fn critical_path_cycles(&self) -> Cycles {
        self.critical_path().iter().map(|s| s.cycles).sum()
    }

    /// The costliest single step — where a postmortem should look
    /// first.
    pub fn dominant(&self) -> Option<PathStep> {
        self.critical_path().into_iter().max_by_key(|s| s.cycles)
    }
}

fn walk(node: &SpanNode, depth: usize, out: &mut Vec<PathStep>) {
    out.push(PathStep {
        lane: node.lane,
        depth,
        kind: node.kind,
        start: node.start,
        cycles: node.self_time(),
    });
    for c in &node.children {
        walk(c, depth + 1, out);
    }
}

/// The per-request forest assembled from a recorder's rings, with the
/// truncation accounting that keeps it honest.
#[derive(Debug, Clone, Default)]
pub struct TraceForest {
    /// One trace per request, sorted by correlation id.
    pub requests: Vec<RequestTrace>,
    /// What the capture lost (the span pass's account).
    pub loss: Loss,
    /// Correlation ids excluded because their spans could not be
    /// assembled losslessly (truncated by overwrite, unmatched `End`,
    /// or unclosed at end of stream), sorted.
    pub poisoned: Vec<u64>,
    /// Spans with correlation id 0 — emitted outside any request scope
    /// — which never join a tree.
    pub unattributed: u64,
}

impl TraceForest {
    /// The trace for `corr`, if it assembled cleanly.
    pub fn request(&self, corr: u64) -> Option<&RequestTrace> {
        self.requests.iter().find(|r| r.corr == corr)
    }
}

/// Assembles the per-request span forest from `recorder`'s lane rings.
pub fn assemble(recorder: &Recorder) -> TraceForest {
    forest(&recorder.capture(usize::MAX).1)
}

/// [`assemble`] over raw per-lane event streams; `lane_dropped[l]` is
/// the number of events lane `l` lost to overwrite (pass zeros for a
/// complete capture).
pub fn assemble_lanes(lanes: &[Vec<Event>], lane_dropped: &[u64]) -> TraceForest {
    let lost: Vec<Loss> = lane_dropped
        .iter()
        .map(|&ring_dropped| Loss {
            ring_dropped,
            ..Loss::default()
        })
        .collect();
    forest(&span_pass(lanes, &lost))
}

/// One tree per request from the pass's spans: a span's parent in its
/// request's tree is its nearest enclosing span of the same request, so
/// the corr-0 doorbell around a ring batch's calls joins no tree.
fn forest(pass: &SpanPass) -> TraceForest {
    let mut poisoned: Vec<u64> = pass.torn.iter().map(|&(corr, _)| corr).collect();
    poisoned.sort_unstable();
    poisoned.dedup();
    let mut unattributed = 0u64;
    let mut by_corr: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    for (lane, spans) in pass.lanes.iter().enumerate() {
        // Each span's children, complete by the time the walk reaches
        // it: a span closes after every span nested in it.
        let mut children: Vec<Vec<SpanNode>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            unattributed += u64::from(s.corr == 0);
            if s.corr == 0 || poisoned.binary_search(&s.corr).is_ok() {
                continue;
            }
            let mut kids = std::mem::take(&mut children[i]);
            kids.sort_by_key(|c| (c.start, Reverse(c.dur)));
            let node = SpanNode {
                lane,
                kind: s.kind,
                start: s.start,
                dur: s.end - s.start,
                children: kids,
            };
            let mut up = s.parent;
            while let Some(p) = up.filter(|&p| spans[p].corr != s.corr) {
                up = spans[p].parent;
            }
            match up {
                Some(p) => children[p].push(node),
                None => by_corr.entry(s.corr).or_default().push(node),
            }
        }
    }
    let requests = by_corr
        .into_iter()
        .map(|(corr, mut roots)| {
            roots.sort_by_key(|r| (r.start, r.lane, Reverse(r.dur)));
            RequestTrace { corr, roots }
        })
        .collect();
    TraceForest {
        requests,
        loss: pass.loss,
        poisoned,
        unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_observe::{EventKind, InstantKind};

    fn complete(_lane: usize, kind: SpanKind, t0: Cycles, t1: Cycles, corr: u64) -> Event {
        Event {
            t: t0,
            corr,
            kind: EventKind::Complete(kind, (t1 - t0) as u32),
        }
    }

    #[test]
    fn flat_complete_events_nest_by_containment() {
        // SkyBridge-core style: leaf sections emitted at their *end*,
        // so the enclosing handler arrives after its children.
        let lane = vec![
            complete(0, SpanKind::Trampoline, 0, 10, 7),
            complete(0, SpanKind::Marshal, 12, 20, 7),
            complete(0, SpanKind::Switch, 30, 35, 7),
            complete(0, SpanKind::Handler, 25, 60, 7),
            complete(0, SpanKind::Call, 0, 70, 7),
        ];
        let f = assemble_lanes(&[lane], &[0]);
        assert!(f.poisoned.is_empty());
        let r = f.request(7).expect("one request");
        assert_eq!(r.roots.len(), 1);
        assert_eq!(r.roots[0].kind, SpanKind::Call);
        assert_eq!(r.span_count(), 5);
        let handler = &r.roots[0].children[2];
        assert_eq!(handler.kind, SpanKind::Handler);
        assert_eq!(handler.children.len(), 1, "switch nests under handler");
        // Critical path conserves the root's cycles exactly.
        assert_eq!(r.critical_path_cycles(), 70);
        assert_eq!(r.total(), 70);
    }

    #[test]
    fn begin_end_pairs_and_completes_mix() {
        let lane = vec![
            Event {
                t: 0,
                corr: 3,
                kind: EventKind::Begin(SpanKind::Call),
            },
            complete(0, SpanKind::Marshal, 5, 15, 3),
            Event {
                t: 10,
                corr: 3,
                kind: EventKind::Instant(InstantKind::Retry),
            },
            complete(0, SpanKind::Handler, 20, 90, 3),
            Event {
                t: 100,
                corr: 3,
                kind: EventKind::End(SpanKind::Call),
            },
        ];
        let f = assemble_lanes(&[lane], &[0]);
        let r = f.request(3).expect("assembled");
        assert_eq!(r.roots.len(), 1);
        assert_eq!(r.roots[0].children.len(), 2);
        assert_eq!(r.critical_path_cycles(), 100);
        let dom = r.dominant().expect("non-empty path");
        assert_eq!(dom.kind, SpanKind::Handler, "70-cycle handler dominates");
        assert_eq!(dom.cycles, 70);
    }

    #[test]
    fn sequential_hops_become_sibling_roots() {
        // Trap-personality chain: two full calls under one trace id.
        let lane = vec![
            complete(0, SpanKind::KernelIpc, 2, 40, 9),
            complete(0, SpanKind::Call, 0, 50, 9),
            complete(0, SpanKind::KernelIpc, 52, 90, 9),
            complete(0, SpanKind::Call, 50, 100, 9),
        ];
        let f = assemble_lanes(&[lane], &[0]);
        let r = f.request(9).expect("assembled");
        assert_eq!(r.roots.len(), 2, "one root per hop");
        assert_eq!(r.total(), 100);
        assert_eq!(r.critical_path_cycles(), 100);
    }

    #[test]
    fn unmatched_end_poisons_the_request_not_the_lane() {
        let lane = vec![
            // Truncated request 4: its Begin was overwritten.
            Event {
                t: 50,
                corr: 4,
                kind: EventKind::End(SpanKind::Call),
            },
            // Healthy request 5 after it.
            complete(0, SpanKind::Call, 60, 80, 5),
        ];
        let f = assemble_lanes(&[lane], &[0]);
        assert_eq!(f.poisoned, vec![4]);
        assert!(f.request(4).is_none(), "no fabricated partial tree");
        assert!(f.request(5).is_some(), "later requests still assemble");
    }

    #[test]
    fn unclosed_begin_poisons_its_request() {
        let lane = vec![
            complete(0, SpanKind::Call, 0, 10, 1),
            Event {
                t: 20,
                corr: 2,
                kind: EventKind::Begin(SpanKind::Call),
            },
        ];
        let f = assemble_lanes(&[lane], &[0]);
        assert_eq!(f.poisoned, vec![2]);
        assert!(f.request(1).is_some());
    }

    #[test]
    fn wrapped_ring_poisons_exactly_the_first_surviving_request() {
        // Real recorder, capacity far below the traffic: the surviving
        // stream starts mid-request and assembly must refuse that one
        // request while keeping the exact drop count.
        let rec = Recorder::new(8);
        for corr in 1..=20u64 {
            let t = corr * 100;
            rec.begin(0, SpanKind::Call, t, corr);
            rec.span(0, SpanKind::Handler, t + 10, t + 60, corr);
            rec.end(0, SpanKind::Call, t + 80, corr);
        }
        let f = assemble(&rec);
        assert_eq!(f.loss.ring_dropped, rec.dropped(), "exact, from the rings");
        assert!(f.loss.ring_dropped > 0);
        // Whatever was poisoned, every surviving request is whole.
        for r in &f.requests {
            assert_eq!(r.span_count(), 2, "corr {}: full tree or nothing", r.corr);
            assert_eq!(r.roots.len(), 1);
        }
        // The newest request always survives intact.
        assert!(f.request(20).is_some());
    }

    #[test]
    fn corr_zero_spans_never_join_a_tree() {
        let lane = vec![
            complete(0, SpanKind::Switch, 0, 5, 0),
            complete(0, SpanKind::Call, 10, 30, 2),
        ];
        let f = assemble_lanes(&[lane], &[0]);
        assert_eq!(f.unattributed, 1);
        assert_eq!(f.requests.len(), 1);
    }

    #[test]
    fn requests_span_multiple_lanes() {
        let l0 = vec![complete(0, SpanKind::Call, 0, 40, 6)];
        let l1 = vec![complete(1, SpanKind::Call, 40, 90, 6)];
        let f = assemble_lanes(&[l0, l1], &[0, 0]);
        let r = f.request(6).expect("assembled across lanes");
        assert_eq!(r.roots.len(), 2);
        assert_eq!(r.roots[0].lane, 0);
        assert_eq!(r.roots[1].lane, 1);
        assert_eq!(r.total(), 90);
    }
}
