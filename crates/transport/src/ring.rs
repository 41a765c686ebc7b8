//! Asynchronous submission/completion rings: batch the crossing.
//!
//! Every direct-mode call pays the full trampoline + EPTP-switch (or
//! trap) cost per request. This module adds an io_uring-style doorbell
//! mode over any [`Transport`]: clients enqueue wire frames — the same
//! 24-byte [`WireHeader`] + payload image `Lane::encode` stages — into a
//! per-lane *submission ring* of fixed-size slots, one doorbell drains a
//! batch of them through the server domain, and completions post back
//! into a *completion ring* correlated by the header's `corr`.
//!
//! The adapter is personality-agnostic: the drain hands the batch to
//! [`Transport::call_batch`], whose default serves each entry with its
//! own crossing (so trap personalities and the `Faulty` decorator keep
//! per-entry fault injection untouched), while `SkyBridgeTransport`
//! overrides it to pay the trampoline + VMFUNC boundary once per batch —
//! the migrating-thread model makes serving consecutive frames inside
//! one crossing legal, since each frame is still handled to completion
//! in submission order by the one migrated thread.
//!
//! Accounting invariants the test battery pins down:
//!
//! - **Exactly one completion per submission.** A consumed entry posts
//!   exactly one completion; an entry the serving transport did not
//!   consume (batch aborted by a server death or a forced timeout
//!   return) *stays at the ring front* in order and is drained by a
//!   later doorbell. Nothing is lost, nothing is duplicated — across
//!   wrap-around, capacity-1 rings, and arbitrary batch budgets.
//! - **Deadlines are completions, not drops.** A frame whose wire
//!   deadline passed before its batch was cut completes as
//!   [`CallError::Timeout`] with [`RingCompletion::expired`] set, and
//!   burns no service time.
//! - **Completions survive until acknowledged.** The completion ring
//!   holds an entry until the client pops it; a full completion ring
//!   back-pressures the doorbell (entries simply stay submitted) rather
//!   than overwriting unacknowledged completions.

use sb_observe::{Recorder, SpanKind};
use sb_sim::Cycles;

use crate::transport::{CallError, Transport};
use crate::wire::{CopyMeter, Lane, Request, WireHeader};

/// Ring geometry and drain policy.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Slots per lane in each ring (submission and completion alike).
    pub capacity: usize,
    /// Maximum entries one doorbell drains — the throughput-mode batch.
    pub batch_budget: usize,
    /// Payload capacity of one slot in bytes (frames are the fixed
    /// 24-byte wire header plus up to this much payload).
    pub slot_bytes: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 64,
            batch_budget: 8,
            slot_bytes: 4096,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The lane's submission ring is at capacity.
    Full,
    /// The request payload exceeds the slot size.
    FrameTooLarge {
        /// Payload bytes the request needs.
        len: usize,
        /// Slot payload capacity.
        cap: usize,
    },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "submission ring full"),
            RingError::FrameTooLarge { len, cap } => {
                write!(f, "frame payload {len} exceeds slot capacity {cap}")
            }
        }
    }
}

/// One acknowledged completion popped from a completion ring. The reply
/// bytes stay readable via [`RingTransport::completion_reply`] until the
/// next pop on the same lane.
#[derive(Debug, Clone)]
pub struct RingCompletion {
    /// The submitter's correlation id, echoed from the wire header.
    pub corr: u64,
    /// Whether this entry expired in the ring (deadline passed before
    /// its batch was cut) and was completed without service.
    pub expired: bool,
    /// The call outcome: reply length, or the error the crossing (or
    /// the deadline) produced.
    pub result: Result<usize, CallError>,
    /// The request as submitted, handed back with its completion — the
    /// submitter needs no table of its own to learn what `corr` was.
    pub req: Request,
}

/// One ring slot. While queued its buffer holds the staged wire frame;
/// the completion writes the reply over the frame's payload, as a
/// server answers in place in the shared buffer. A slot never moves:
/// the ledger totals walk over it, and every frame the array wraps onto
/// it reuses its buffer.
#[derive(Debug, Default)]
struct Slot {
    /// The staged frame, then the posted reply. Sized to what it
    /// carries, never to `slot_bytes`.
    buf: Lane,
    /// The request the serving transport re-materialises the frame from.
    req: Request,
    deadline: Cycles,
    expired: bool,
    /// The posted outcome, until the pop takes it.
    result: Option<Result<usize, CallError>>,
}

/// One lane's rings over a fixed array of `2·capacity + 1` slots that
/// the ledger totals index modulo its length: the submission ring is
/// `[posted, submitted)`, the completion ring `[acked, posted)`, and
/// slot `acked − 1` is the acknowledged-reply view. Each ring holds at
/// most `capacity` entries, so the three never overlap.
#[derive(Debug, Default)]
struct LaneRings {
    slots: Box<[Slot]>,
    /// Total frames ever submitted / completions posted / completions
    /// acknowledged — the power-loss drill's ledger.
    submitted_total: u64,
    posted_total: u64,
    acked_total: u64,
}

impl LaneRings {
    /// The index of the slot the ledger total `t` lands on.
    #[inline]
    fn at(&self, t: u64) -> usize {
        (t % self.slots.len() as u64) as usize
    }

    /// The slots of the totals `[from, to)`, oldest first.
    #[inline]
    fn span_mut(&mut self, from: u64, to: u64) -> impl Iterator<Item = &mut Slot> {
        let (front, back) = self.slots.split_at_mut(self.at(from));
        back.iter_mut().chain(front).take((to - from) as usize)
    }
}

/// The doorbell adapter: per-lane submission/completion rings over any
/// inner [`Transport`].
#[derive(Debug)]
pub struct RingTransport<T: Transport> {
    inner: T,
    cfg: RingConfig,
    lanes: Vec<LaneRings>,
    /// The live requests of the batch being drained (reused storage for
    /// the contiguous slice [`Transport::call_batch`] takes).
    batch: Vec<Request>,
    meter: CopyMeter,
    recorder: Recorder,
    label: String,
}

impl<T: Transport> RingTransport<T> {
    /// Wraps `inner` with fresh rings.
    pub fn new(inner: T, cfg: RingConfig) -> Self {
        assert!(cfg.capacity >= 1, "rings need at least one slot");
        assert!(cfg.batch_budget >= 1, "doorbell must drain something");
        let lanes = inner.lanes();
        let label = format!("ring:{}", inner.label());
        RingTransport {
            inner,
            cfg,
            lanes: (0..lanes)
                .map(|_| LaneRings {
                    slots: (0..2 * cfg.capacity + 1).map(|_| Slot::default()).collect(),
                    ..LaneRings::default()
                })
                .collect(),
            batch: Vec::new(),
            meter: CopyMeter::new(),
            recorder: Recorder::off(),
            label,
        }
    }

    /// The ring geometry in force.
    pub fn config(&self) -> RingConfig {
        self.cfg
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped transport, mutably (probes, fault hookups).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the rings and returns the serving transport — the
    /// post-run path (quiesce probes run direct, not through a ring).
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Enqueues `req` into `lane`'s submission ring with no deadline.
    pub fn submit(&mut self, lane: usize, req: &Request) -> Result<(), RingError> {
        self.submit_with_deadline(lane, req, 0)
    }

    /// Enqueues `req` with an absolute wire `deadline` (0 = none). The
    /// frame — header and payload, exactly the bytes `Lane::encode`
    /// would stage — is written into the next free slot; `Err` when the
    /// ring is full or the payload outgrows the slot.
    pub fn submit_with_deadline(
        &mut self,
        lane: usize,
        req: &Request,
        deadline: Cycles,
    ) -> Result<(), RingError> {
        if req.payload_len() > self.cfg.slot_bytes {
            return Err(RingError::FrameTooLarge {
                len: req.payload_len(),
                cap: self.cfg.slot_bytes,
            });
        }
        if self.sq_len(lane) >= self.cfg.capacity {
            return Err(RingError::Full);
        }
        let rings = &mut self.lanes[lane];
        let slot = &mut rings.slots[rings.at(rings.submitted_total)];
        slot.req.clone_from(req);
        slot.deadline = deadline;
        slot.buf.encode(req, deadline, &self.meter);
        rings.submitted_total += 1;
        Ok(())
    }

    /// Rings `lane`'s doorbell: cuts a batch from the submission ring
    /// (up to the batch budget and the completion ring's free space),
    /// completes expired entries as [`CallError::Timeout`] without
    /// service, drains the live ones through one
    /// [`Transport::call_batch`], and posts completions. Entries the
    /// serving transport did not consume stay at the ring front.
    /// Returns the number of completions posted.
    pub fn doorbell(&mut self, lane: usize) -> usize {
        let now = self.inner.now(lane);
        // Cut the batch: up to the budget, one completion slot reserved
        // per entry, expiry judged once at cut time. Only live entries
        // cross the boundary; expired ones must not burn service time.
        let cq_space = self.cfg.capacity - self.cq_len(lane);
        let cut = self.sq_len(lane).min(self.cfg.batch_budget).min(cq_space);
        if cut == 0 {
            return 0;
        }
        let rings = &mut self.lanes[lane];
        let (first, end) = (rings.posted_total, rings.posted_total + cut as u64);
        self.batch.clear();
        for slot in rings.span_mut(first, end) {
            slot.expired = slot.deadline != 0 && now > slot.deadline;
            if !slot.expired {
                self.batch.push(slot.req.clone());
            }
        }
        let consumed = if self.batch.is_empty() {
            0
        } else {
            self.recorder.begin(lane, SpanKind::Doorbell, now, 0);
            // Completions arrive in batch order, so the live slot each
            // belongs to is found by walking the cut alongside them.
            let meter = &self.meter;
            let mut live = rings.span_mut(first, end).filter(|s| !s.expired);
            let mut done = 0usize;
            let mut post = |i: usize, result: Result<usize, CallError>, reply: &[u8]| {
                debug_assert_eq!(i, done, "batch completions arrive in order");
                let slot = live.next().expect("surplus batch completions");
                meter.add(reply.len());
                slot.buf.set_reply(reply);
                slot.result = Some(result);
                done += 1;
            };
            let consumed = self.inner.call_batch(lane, &self.batch, &mut post);
            let drained = self.inner.now(lane).max(now);
            self.recorder.end(lane, SpanKind::Doorbell, drained, 0);
            let consumed = consumed.min(self.batch.len());
            assert_eq!(
                done, consumed,
                "call_batch posts one completion per consumed entry"
            );
            consumed
        };
        // Post completions in submission order. The completed prefix
        // runs up to the first live entry the server did not consume;
        // everything after it — expired or not — stays in the
        // submission ring, so completions never overtake each other.
        let mut live_left = consumed;
        let mut posted = 0;
        for slot in rings.span_mut(first, end) {
            if slot.expired {
                slot.buf.set_reply(&[]);
                slot.result = Some(Err(CallError::Timeout {
                    elapsed: now - slot.deadline,
                }));
            } else if live_left > 0 {
                live_left -= 1;
            } else {
                break;
            }
            if slot.req.arrival < now {
                self.recorder
                    .span(lane, SpanKind::RingWait, slot.req.arrival, now, slot.req.id);
            }
            posted += 1;
        }
        rings.posted_total += posted as u64;
        posted
    }

    /// Acknowledges the oldest completion on `lane`, if any. Its slot
    /// becomes the lane's acknowledged-reply view (readable via
    /// [`RingTransport::completion_reply`] / `Transport::reply`) until
    /// the next pop.
    pub fn pop_completion(&mut self, lane: usize) -> Option<RingCompletion> {
        let rings = &mut self.lanes[lane];
        if rings.acked_total == rings.posted_total {
            return None;
        }
        let slot = &mut rings.slots[rings.at(rings.acked_total)];
        rings.acked_total += 1;
        Some(RingCompletion {
            corr: slot.req.id,
            expired: slot.expired,
            result: slot.result.take().expect("a posted slot holds its outcome"),
            req: slot.req.clone(),
        })
    }

    /// The last acknowledged reply on `lane` (valid until the next pop).
    pub fn completion_reply(&self, lane: usize) -> &[u8] {
        let rings = &self.lanes[lane];
        match rings.acked_total {
            0 => &[],
            t => rings.slots[rings.at(t - 1)].buf.reply(),
        }
    }

    /// Frames currently queued in `lane`'s submission ring.
    pub fn sq_len(&self, lane: usize) -> usize {
        let rings = &self.lanes[lane];
        (rings.submitted_total - rings.posted_total) as usize
    }

    /// Completions currently waiting to be acknowledged on `lane`.
    pub fn cq_len(&self, lane: usize) -> usize {
        let rings = &self.lanes[lane];
        (rings.posted_total - rings.acked_total) as usize
    }

    /// Correlation ids of the frames still queued on `lane`, parsed out
    /// of the slots' wire headers — proof the ring really carries wire
    /// frames, and the power-loss drill's durable set.
    pub fn queued_corrs(&self, lane: usize) -> Vec<u64> {
        let rings = &self.lanes[lane];
        (rings.posted_total..rings.submitted_total)
            .filter_map(|t| WireHeader::parse(rings.slots[rings.at(t)].buf.wire()).map(|h| h.corr))
            .collect()
    }

    /// Correlation ids of completions posted but not yet acknowledged.
    pub fn unacked_corrs(&self, lane: usize) -> Vec<u64> {
        let rings = &self.lanes[lane];
        (rings.acked_total..rings.posted_total)
            .map(|t| rings.slots[rings.at(t)].req.id)
            .collect()
    }

    /// Total frames ever submitted on `lane`.
    pub fn submitted(&self, lane: usize) -> u64 {
        self.lanes[lane].submitted_total
    }

    /// Total completions ever posted on `lane`.
    pub fn posted(&self, lane: usize) -> u64 {
        self.lanes[lane].posted_total
    }

    /// Total completions ever acknowledged (popped) on `lane`.
    pub fn acked(&self, lane: usize) -> u64 {
        self.lanes[lane].acked_total
    }
}

impl<T: Transport> Transport for RingTransport<T> {
    fn label(&self) -> &str {
        &self.label
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.inner.now(lane)
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.inner.wait_until(lane, time)
    }

    fn bind(&mut self, lane: usize) -> bool {
        self.inner.bind(lane)
    }

    /// One synchronous call through the rings: submit, ring the
    /// doorbell until this request's completion posts, acknowledge it.
    /// Earlier unacknowledged traffic on the lane is drained first (and
    /// its completions discarded), so callers mixing `submit` and
    /// `call` should reap before calling.
    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        self.submit(lane, req)
            .map_err(|e| CallError::Failed(format!("ring submit refused: {e}")))?;
        loop {
            while let Some(c) = self.pop_completion(lane) {
                if c.corr == req.id {
                    return c.result;
                }
            }
            if self.doorbell(lane) == 0 {
                return Err(CallError::Failed(
                    "ring stalled: doorbell posted no completion".to_string(),
                ));
            }
        }
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.completion_reply(lane)
    }

    fn recover(&mut self, lane: usize) -> bool {
        self.inner.recover(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied() + self.meter.total()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder.clone();
        self.inner.attach_recorder(recorder);
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        self.inner.pmu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FixedServiceTransport;

    fn req(id: u64, payload: usize) -> Request {
        Request {
            id,
            arrival: 0,
            key: id ^ 0xabcd,
            write: id.is_multiple_of(2),
            payload,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn submit_doorbell_pop_round_trips() {
        let mut r = RingTransport::new(
            FixedServiceTransport::new(1, 100),
            RingConfig {
                capacity: 8,
                batch_budget: 4,
                slot_bytes: 256,
            },
        );
        for id in 0..3u64 {
            r.submit(0, &req(id, 32)).unwrap();
        }
        assert_eq!(r.sq_len(0), 3);
        assert_eq!(r.queued_corrs(0), vec![0, 1, 2]);
        let posted = r.doorbell(0);
        assert_eq!(posted, 3);
        for id in 0..3u64 {
            let c = r.pop_completion(0).unwrap();
            assert_eq!(c.corr, id);
            assert!(!c.expired);
            assert_eq!(c.result.unwrap(), 32);
            assert_eq!(r.completion_reply(0), req(id, 32).encode());
        }
        assert!(r.pop_completion(0).is_none());
    }

    #[test]
    fn full_ring_refuses_submission() {
        let mut r = RingTransport::new(
            FixedServiceTransport::new(1, 10),
            RingConfig {
                capacity: 2,
                batch_budget: 8,
                slot_bytes: 64,
            },
        );
        r.submit(0, &req(0, 16)).unwrap();
        r.submit(0, &req(1, 16)).unwrap();
        assert_eq!(r.submit(0, &req(2, 16)), Err(RingError::Full));
        assert_eq!(
            r.submit(0, &req(3, 1024)),
            Err(RingError::FrameTooLarge { len: 1024, cap: 64 })
        );
    }

    #[test]
    fn expired_entries_complete_as_timeout_without_service() {
        let mut r = RingTransport::new(FixedServiceTransport::new(1, 100), RingConfig::default());
        r.submit_with_deadline(0, &req(1, 16), 50).unwrap();
        r.inner_mut().wait_until(0, 200);
        let posted = r.doorbell(0);
        assert_eq!(posted, 1);
        let c = r.pop_completion(0).unwrap();
        assert!(c.expired);
        assert!(matches!(c.result, Err(CallError::Timeout { elapsed: 150 })));
        // No service was burned: the clock stands where we left it.
        assert_eq!(r.now(0), 200);
    }

    #[test]
    fn full_cq_backpressures_instead_of_overwriting() {
        let mut r = RingTransport::new(
            FixedServiceTransport::new(1, 10),
            RingConfig {
                capacity: 2,
                batch_budget: 8,
                slot_bytes: 64,
            },
        );
        r.submit(0, &req(0, 16)).unwrap();
        r.submit(0, &req(1, 16)).unwrap();
        assert_eq!(r.doorbell(0), 2);
        // CQ is now full; new submissions stay queued across doorbells.
        r.submit(0, &req(2, 16)).unwrap();
        assert_eq!(r.doorbell(0), 0);
        assert_eq!(r.sq_len(0), 1);
        assert_eq!(r.pop_completion(0).unwrap().corr, 0);
        assert_eq!(r.doorbell(0), 1);
        let corrs: Vec<u64> = std::iter::from_fn(|| r.pop_completion(0))
            .map(|c| c.corr)
            .collect();
        assert_eq!(corrs, vec![1, 2]);
    }

    /// The most the three spans can hold at once: a full completion
    /// ring, a full submission ring and the acknowledged view — one
    /// slot more than two rings' worth.
    #[test]
    fn the_acknowledged_reply_survives_a_full_window() {
        for c in [1, 64] {
            let mut r = RingTransport::new(
                FixedServiceTransport::new(1, 10),
                RingConfig {
                    capacity: c,
                    batch_budget: c,
                    slot_bytes: 64,
                },
            );
            let mut id = 0u64;
            let mut submit = |r: &mut RingTransport<_>| {
                r.submit(0, &req(id, 16)).unwrap();
                id += 1;
            };
            (0..c).for_each(|_| submit(&mut r));
            assert_eq!(r.doorbell(0), c);
            let popped = r.pop_completion(0).unwrap();
            (0..c).for_each(|_| submit(&mut r));
            assert_eq!(r.doorbell(0), 1, "one completion fits");
            submit(&mut r);
            assert_eq!((r.cq_len(0), r.sq_len(0)), (c, c));
            assert_eq!(r.completion_reply(0), popped.req.encode(), "capacity {c}");
        }
    }

    #[test]
    fn transport_call_path_works_through_the_rings() {
        let mut r = RingTransport::new(FixedServiceTransport::new(2, 100), RingConfig::default());
        let rq = req(9, 48);
        let n = r.call(0, &rq).unwrap();
        assert_eq!(n, 48);
        assert_eq!(Transport::reply(&r, 0), rq.encode());
        assert_eq!(r.now(0), 100);
        assert_eq!(r.now(1), 0);
    }

    #[test]
    fn bind_and_pmu_reach_the_inner_transport() {
        let fixed = RingTransport::new(FixedServiceTransport::new(1, 100), RingConfig::default());
        assert_eq!(fixed.pmu(), None, "a synthetic transport has no cores");
        let inner = crate::mpk::MpkTransport::new(1, &crate::ServiceSpec::default());
        let mut r = RingTransport::new(inner, RingConfig::default());
        r.call(0, &req(1, 48)).unwrap();
        assert!(r.pmu().is_some_and(|p| p.wrpkru_writes > 0));
        assert_eq!(r.pmu(), r.inner().pmu());
        assert!(!r.bind(0), "an MPK lane has no binding to renew");
    }
}
