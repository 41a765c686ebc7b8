//! The span pass: the one place a lane's recorded events become spans.
//!
//! The phase fold ([`crate::phase`]), the Chrome export
//! ([`crate::export`]), `sb-sentinel`'s trace forest and its postmortem
//! bundle all read [`span_pass`]'s spans and its one [`Loss`]; none of
//! them pairs a `Begin` with an `End` itself. DESIGN.md §12 ("The span
//! pass") states the pairing rule, the nesting rule, where the wait
//! spans and the doorbell land, what counts as an end-to-end call and
//! what each [`Loss`] field counts.

use sb_sim::Cycles;

use crate::json::Json;
use crate::ring::{Event, EventKind, SpanKind};

/// What a capture lost, counted once for every reader of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Loss {
    /// Events the rings overwrote before the read. Read from a
    /// [`Recorder`](crate::Recorder), this is `Recorder::dropped`: every lane,
    /// lanes already harvested included.
    pub ring_dropped: u64,
    /// Held events a reader left out: a postmortem keeps each lane's
    /// newest events up to its budget.
    pub clipped: u64,
    /// `End` events that closed no open span of their kind and request.
    pub unmatched: u64,
    /// `Begin` events still open when their lane's stream ended.
    pub unclosed: u64,
}

impl Loss {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &Loss) {
        self.ring_dropped += other.ring_dropped;
        self.clipped += other.clipped;
        self.unmatched += other.unmatched;
        self.unclosed += other.unclosed;
    }
}

/// `loss` as JSON, one key per field: the one rendering the Chrome
/// export, the postmortem bundle and its receipt share.
pub fn loss_json(loss: &Loss) -> Json {
    Json::obj()
        .field("ring_dropped", loss.ring_dropped)
        .field("clipped", loss.clipped)
        .field("unmatched", loss.unmatched)
        .field("unclosed", loss.unclosed)
}

/// One closed span of a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the section was.
    pub kind: SpanKind,
    /// The request id its events carry (0: no request in scope).
    pub corr: u64,
    /// Lane-clock start, in simulated cycles.
    pub start: Cycles,
    /// Lane-clock end (never before `start`).
    pub end: Cycles,
    /// The index, in its lane's spans, of the span it nests in.
    pub parent: Option<usize>,
}

/// Every lane's spans and what the capture lost.
#[derive(Debug, Clone, Default)]
pub struct SpanPass {
    /// Per lane, its closed spans in the order they closed, so a span
    /// always comes after every span nested in it.
    pub lanes: Vec<Vec<Span>>,
    /// Per lane, what the caller said it lost ahead of its first event.
    pub lost: Vec<Loss>,
    /// Everything the capture lost.
    pub loss: Loss,
    /// Each request the capture does not hold whole, with its share of
    /// `loss`: the first request a lane holds after losing a prefix, the
    /// request of each unmatched `End` and of each unclosed `Begin`.
    pub torn: Vec<(u64, Loss)>,
}

impl SpanPass {
    /// Counts one event of request `corr` under the field `count` picks.
    fn tear(&mut self, corr: u64, count: fn(&mut Loss) -> &mut u64) {
        let mut loss = Loss::default();
        *count(&mut loss) += 1;
        self.loss.merge(&loss);
        self.torn.push((corr, loss));
    }
}

/// Pairs and nests every lane's events (`lanes[l]`, oldest first), where
/// `lost[l]` is what lane `l` lost ahead of its first event (zero where
/// the slice ends).
pub fn span_pass(lanes: &[Vec<Event>], lost: &[Loss]) -> SpanPass {
    let mut pass = SpanPass::default();
    for (lane, events) in lanes.iter().enumerate() {
        let head = lost.get(lane).copied().unwrap_or_default();
        pass.loss.merge(&head);
        pass.lost.push(head);
        // A lost prefix can only cut the first request held: a lane
        // serves one request at a time.
        if let (Some(first), true) = (events.first(), head != Loss::default()) {
            pass.torn.push((first.corr, head));
        }
        let mut spans: Vec<Span> = Vec::new();
        // Closed spans not yet nested in another, in closing order.
        let mut loose: Vec<usize> = Vec::new();
        // Open `Begin`s, each with the length of `loose` when it opened.
        let mut open: Vec<(Event, usize)> = Vec::new();
        for ev in events {
            let (kind, start, end, from) = match ev.kind {
                EventKind::Begin(_) => {
                    open.push((*ev, loose.len()));
                    continue;
                }
                EventKind::End(kind) => match open
                    .pop_if(|(b, _)| (b.kind, b.corr) == (EventKind::Begin(kind), ev.corr))
                {
                    Some((b, from)) => (kind, b.t, ev.t.max(b.t), from),
                    None => {
                        pass.tear(ev.corr, |l| &mut l.unmatched);
                        continue;
                    }
                },
                EventKind::Complete(kind, dur) => {
                    // Emitted once its section is over, so the spans of
                    // its own request that closed inside it are its own.
                    let end = ev.t + dur as Cycles;
                    let floor = open.last().map_or(0, |&(_, from)| from);
                    let mut from = loose.len();
                    while from > floor {
                        let s = &spans[loose[from - 1]];
                        if s.corr != ev.corr || s.start < ev.t || s.end > end {
                            break;
                        }
                        from -= 1;
                    }
                    (kind, ev.t, end, from)
                }
                EventKind::Instant(_) => continue,
            };
            let at = spans.len();
            for &child in &loose[from..] {
                spans[child].parent = Some(at);
            }
            loose.truncate(from);
            loose.push(at);
            spans.push(Span {
                kind,
                corr: ev.corr,
                start,
                end,
                parent: None,
            });
        }
        for (b, _) in open {
            pass.tear(b.corr, |l| &mut l.unclosed);
        }
        pass.lanes.push(spans);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Cycles, corr: u64, kind: EventKind) -> Event {
        Event { t, corr, kind }
    }

    fn shape(spans: &[Span]) -> Vec<(SpanKind, u64, Cycles, Cycles, Option<usize>)> {
        spans
            .iter()
            .map(|s| (s.kind, s.corr, s.start, s.end, s.parent))
            .collect()
    }

    #[test]
    fn a_complete_takes_in_its_own_request_closed_inside_it() {
        use SpanKind::*;
        // A handler around a nested call's phases, emitted after them,
        // inside an eager call.
        let lane = vec![
            ev(0, 1, EventKind::Begin(Call)),
            ev(0, 1, EventKind::Complete(Trampoline, 10)),
            ev(20, 1, EventKind::Complete(Switch, 5)),
            ev(30, 1, EventKind::Complete(Marshal, 5)),
            ev(15, 1, EventKind::Complete(Handler, 35)),
            ev(60, 1, EventKind::End(Call)),
        ];
        let pass = span_pass(std::slice::from_ref(&lane), &[]);
        assert_eq!(pass.loss, Loss::default());
        assert_eq!(
            shape(&pass.lanes[0]),
            [
                (Trampoline, 1, 0, 10, Some(4)),
                (Switch, 1, 20, 25, Some(3)),
                (Marshal, 1, 30, 35, Some(3)),
                (Handler, 1, 15, 50, Some(4)),
                (Call, 1, 0, 60, None),
            ],
            "the trampoline started before the handler: not its own"
        );
        // Another request's span ends the run a Complete takes in.
        let mut other = lane;
        other[3].corr = 2;
        let parents: Vec<_> = span_pass(&[other], &[]).lanes[0]
            .iter()
            .map(|s| s.parent)
            .collect();
        assert_eq!(
            parents,
            [Some(4); 4].into_iter().chain([None]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_complete_never_reaches_outside_the_span_open_around_it() {
        use SpanKind::*;
        let lane = vec![
            ev(5, 3, EventKind::Complete(Switch, 1)),
            ev(0, 3, EventKind::Begin(Doorbell)),
            ev(5, 3, EventKind::Complete(Handler, 1)),
            ev(9, 3, EventKind::End(Doorbell)),
        ];
        let pass = span_pass(&[lane], &[]);
        let parents: Vec<_> = pass.lanes[0].iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(2), None]);
    }

    #[test]
    fn losses_are_counted_once_and_name_their_requests() {
        use SpanKind::*;
        let lane = vec![
            ev(0, 7, EventKind::Complete(Call, 5)),
            ev(6, 8, EventKind::End(Handler)),
            ev(7, 9, EventKind::Begin(Call)),
            ev(8, 4, EventKind::End(Call)),
        ];
        let head = Loss {
            ring_dropped: 3,
            clipped: 2,
            ..Loss::default()
        };
        let pass = span_pass(&[lane, Vec::new()], &[head, head]);
        assert_eq!(
            pass.loss,
            Loss {
                ring_dropped: 6,
                clipped: 4,
                unmatched: 2,
                unclosed: 1,
            }
        );
        let torn: Vec<u64> = pass.torn.iter().map(|&(corr, _)| corr).collect();
        assert_eq!(
            torn,
            [7, 8, 4, 9],
            "an End of another request closes nothing"
        );
        assert_eq!(pass.lanes[0].len(), 1);
        assert_eq!(pass.lost, [head, head]);
    }
}
