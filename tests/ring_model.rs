//! Reference model for the slot rings.
//!
//! [`ModelRing`] is the submission/completion ring written the naive
//! way — a `VecDeque` of owned frames, and a fresh `Vec` for the batch
//! cut, the expiry flags, the live requests and the completions of
//! every doorbell. It is kept as the executable specification of
//! [`RingTransport`]: the property below drives both through the same
//! arbitrary interleaving of submits, doorbells, acknowledgments and
//! clock advances and requires every observable — return values,
//! occupancies, the corrs parsed out of the queued frames, the
//! power-loss ledger, reply bytes, lane clocks and the copy meter — to
//! agree after every step.

use std::collections::VecDeque;

use proptest::prelude::*;
use sb_sim::Cycles;
use sb_transport::{
    BatchComplete, CallError, CopyMeter, FixedServiceTransport, Request, RingConfig, RingError,
    RingTransport, Transport, WireHeader, OP_TAG_OFFSET, WIRE_HEADER_LEN, WIRE_MIN,
};

struct SqEntry {
    frame: Vec<u8>,
    req: Request,
    deadline: Cycles,
}

struct CqEntry {
    corr: u64,
    expired: bool,
    result: Result<usize, CallError>,
    reply: Vec<u8>,
}

/// The naive rings over `T`.
struct ModelRing<T: Transport> {
    inner: T,
    cfg: RingConfig,
    sq: Vec<VecDeque<SqEntry>>,
    cq: Vec<VecDeque<CqEntry>>,
    last: Vec<Vec<u8>>,
    submitted: Vec<u64>,
    posted: Vec<u64>,
    acked: Vec<u64>,
    meter: CopyMeter,
}

impl<T: Transport> ModelRing<T> {
    fn new(inner: T, cfg: RingConfig) -> Self {
        let lanes = inner.lanes();
        ModelRing {
            inner,
            cfg,
            sq: (0..lanes).map(|_| VecDeque::new()).collect(),
            cq: (0..lanes).map(|_| VecDeque::new()).collect(),
            last: vec![Vec::new(); lanes],
            submitted: vec![0; lanes],
            posted: vec![0; lanes],
            acked: vec![0; lanes],
            meter: CopyMeter::new(),
        }
    }

    fn submit_with_deadline(
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
        if self.sq[lane].len() >= self.cfg.capacity {
            return Err(RingError::Full);
        }
        let mut frame = vec![0u8; req.wire_len()];
        WireHeader {
            opcode: req.write as u8,
            corr: req.id,
            deadline,
            len: req.payload_len() as u32,
            tenant: req.tenant,
        }
        .write_to(&mut frame[..WIRE_HEADER_LEN]);
        frame[WIRE_HEADER_LEN..WIRE_HEADER_LEN + 8].copy_from_slice(&req.key.to_le_bytes());
        frame[WIRE_HEADER_LEN + OP_TAG_OFFSET] = req.write as u8;
        self.meter.add(frame.len());
        self.sq[lane].push_back(SqEntry {
            frame,
            req: req.clone(),
            deadline,
        });
        self.submitted[lane] += 1;
        Ok(())
    }

    fn doorbell(&mut self, lane: usize) -> usize {
        let now = self.inner.now(lane);
        let mut cq_space = self.cfg.capacity.saturating_sub(self.cq[lane].len());
        let mut cut: Vec<SqEntry> = Vec::new();
        while cut.len() < self.cfg.batch_budget && cq_space > 0 && !self.sq[lane].is_empty() {
            cut.push(self.sq[lane].pop_front().expect("checked nonempty"));
            cq_space -= 1;
        }
        if cut.is_empty() {
            return 0;
        }
        let expired: Vec<bool> = cut
            .iter()
            .map(|e| e.deadline != 0 && now > e.deadline)
            .collect();
        let reqs: Vec<Request> = cut
            .iter()
            .zip(&expired)
            .filter(|&(_, &x)| !x)
            .map(|(e, _)| e.req.clone())
            .collect();
        let mut live_done: Vec<CqEntry> = Vec::new();
        let consumed = if reqs.is_empty() {
            0
        } else {
            let meter = &self.meter;
            let mut post = |i: usize, result: Result<usize, CallError>, reply: &[u8]| {
                meter.add(reply.len());
                live_done.push(CqEntry {
                    corr: reqs[i].id,
                    expired: false,
                    result,
                    reply: reply.to_vec(),
                });
            };
            self.inner
                .call_batch(lane, &reqs, &mut post)
                .min(reqs.len())
        };
        // The completed prefix runs up to the first live entry the
        // server did not consume; the rest returns to the ring front.
        let mut live_idx = 0usize;
        let mut restore_from = cut.len();
        for (i, is_expired) in expired.iter().enumerate() {
            if *is_expired {
                continue;
            }
            if live_idx < consumed {
                live_idx += 1;
            } else {
                restore_from = i;
                break;
            }
        }
        let tail = cut.split_off(restore_from);
        let mut posted = 0usize;
        let mut live_iter = live_done.into_iter();
        for (e, is_expired) in cut.into_iter().zip(expired) {
            let entry = if is_expired {
                CqEntry {
                    corr: e.req.id,
                    expired: true,
                    result: Err(CallError::Timeout {
                        elapsed: now - e.deadline,
                    }),
                    reply: Vec::new(),
                }
            } else {
                live_iter.next().expect("one completion per consumed entry")
            };
            self.cq[lane].push_back(entry);
            self.posted[lane] += 1;
            posted += 1;
        }
        assert!(live_iter.next().is_none(), "surplus batch completions");
        for e in tail.into_iter().rev() {
            self.sq[lane].push_front(e);
        }
        posted
    }

    /// `(corr, expired, result)` of the oldest completion.
    fn pop_completion(&mut self, lane: usize) -> Option<(u64, bool, Result<usize, CallError>)> {
        let e = self.cq[lane].pop_front()?;
        self.last[lane].clear();
        self.last[lane].extend_from_slice(&e.reply);
        self.acked[lane] += 1;
        Some((e.corr, e.expired, e.result))
    }

    fn queued_corrs(&self, lane: usize) -> Vec<u64> {
        self.sq[lane]
            .iter()
            .filter_map(|e| WireHeader::parse(&e.frame).map(|h| h.corr))
            .collect()
    }

    fn unacked_corrs(&self, lane: usize) -> Vec<u64> {
        self.cq[lane].iter().map(|e| e.corr).collect()
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied() + self.meter.total()
    }
}

/// A constant-service echo server whose batched crossing is cut short
/// on a script: batch number `n` consumes at most `prefix[n % len]`
/// entries (a server death or a forced timeout return mid-batch), and
/// every request whose id is a multiple of `fail_every` fails.
struct Flaky {
    inner: FixedServiceTransport,
    prefix: Vec<usize>,
    batches: usize,
    fail_every: u64,
}

impl Flaky {
    fn new(lanes: usize, prefix: Vec<usize>, fail_every: u64) -> Self {
        Flaky {
            inner: FixedServiceTransport::new(lanes, 100),
            prefix,
            batches: 0,
            fail_every,
        }
    }
}

impl Transport for Flaky {
    fn label(&self) -> &str {
        "flaky"
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

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let n = self.inner.call(lane, req)?;
        if req.id.is_multiple_of(self.fail_every) {
            return Err(CallError::Failed(format!("scripted failure of {}", req.id)));
        }
        Ok(n)
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.inner.reply(lane)
    }

    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        let take = self.prefix[self.batches % self.prefix.len()].min(reqs.len());
        self.batches += 1;
        for (i, req) in reqs[..take].iter().enumerate() {
            match self.call(lane, req) {
                Ok(n) => complete(i, Ok(n), self.reply(lane)),
                Err(e) => complete(i, Err(e), &[]),
            }
        }
        take
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Submit a frame with this payload and a deadline `rel` cycles
    /// from the lane's clock (negative: already past; `None`: none).
    Submit {
        lane: usize,
        payload: usize,
        rel: Option<i64>,
    },
    Doorbell(usize),
    Pop(usize),
    /// Idle the lane forward.
    Wait(usize, Cycles),
}

const LANES: usize = 2;
const SLOT_BYTES: usize = 96;

fn op() -> impl Strategy<Value = Op> {
    let lane = 0usize..LANES;
    prop_oneof![
        (
            0usize..LANES,
            // From below the wire minimum up to one byte past the slot.
            prop_oneof![0usize..WIRE_MIN + 2, WIRE_MIN..SLOT_BYTES + 2],
            prop_oneof![
                Just(None),
                (-300i64..300).prop_map(Some),
                (-300i64..300).prop_map(Some)
            ],
        )
            .prop_map(|(lane, payload, rel)| Op::Submit { lane, payload, rel }),
        (0usize..LANES).prop_map(Op::Doorbell),
        (0usize..LANES).prop_map(Op::Doorbell),
        (0usize..LANES).prop_map(Op::Pop),
        (lane, 1u64..400).prop_map(|(l, dt)| Op::Wait(l, dt)),
    ]
}

fn same_result(a: &Result<usize, CallError>, b: &Result<usize, CallError>) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn slot_ring_matches_the_naive_ring(
        capacity in prop_oneof![Just(1usize), Just(2usize), Just(64usize)],
        // 1, 8, and past any capacity.
        batch_budget in prop_oneof![Just(1usize), Just(8usize), Just(100usize)],
        prefix in proptest::collection::vec(0usize..10, 1..5),
        fail_every in 3u64..9,
        // Leave completions unacknowledged until the CQ is full.
        lazy_ack in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..250),
    ) {
        let cfg = RingConfig { capacity, batch_budget, slot_bytes: SLOT_BYTES };
        let mut model = ModelRing::new(Flaky::new(LANES, prefix.clone(), fail_every), cfg);
        let mut ring = RingTransport::new(Flaky::new(LANES, prefix, fail_every), cfg);
        let mut next_id = 1u64;
        for op in ops {
            match op {
                Op::Submit { lane, payload, rel } => {
                    let now = ring.now(lane);
                    let req = Request {
                        id: next_id,
                        arrival: now.saturating_sub(next_id % 5),
                        key: next_id.wrapping_mul(0x9e37_79b9),
                        write: next_id.is_multiple_of(3),
                        payload,
                        client: None,
                        tenant: (next_id % 4) as u16,
                    };
                    next_id += 1;
                    // 0 means "no deadline" on the wire.
                    let deadline = rel.map_or(0, |r| now.saturating_add_signed(r).max(1));
                    prop_assert_eq!(
                        ring.submit_with_deadline(lane, &req, deadline),
                        model.submit_with_deadline(lane, &req, deadline)
                    );
                }
                Op::Doorbell(lane) => {
                    prop_assert_eq!(ring.doorbell(lane), model.doorbell(lane));
                }
                Op::Pop(lane) => {
                    if lazy_ack && ring.cq_len(lane) < capacity {
                        continue;
                    }
                    match (ring.pop_completion(lane), model.pop_completion(lane)) {
                        (None, None) => {}
                        (Some(c), Some((corr, expired, result))) => {
                            prop_assert_eq!(c.corr, corr);
                            prop_assert_eq!(c.expired, expired);
                            prop_assert!(
                                same_result(&c.result, &result),
                                "{:?} vs {:?}", c.result, result
                            );
                        }
                        (a, b) => prop_assert!(false, "{a:?} vs {:?}", b.map(|x| x.0)),
                    }
                }
                Op::Wait(lane, dt) => {
                    let to = ring.now(lane) + dt;
                    ring.wait_until(lane, to);
                    model.inner.wait_until(lane, to);
                }
            }
            for lane in 0..LANES {
                prop_assert_eq!(ring.sq_len(lane), model.sq[lane].len());
                prop_assert_eq!(ring.cq_len(lane), model.cq[lane].len());
                prop_assert_eq!(ring.queued_corrs(lane), model.queued_corrs(lane));
                prop_assert_eq!(ring.unacked_corrs(lane), model.unacked_corrs(lane));
                prop_assert_eq!(ring.submitted(lane), model.submitted[lane]);
                prop_assert_eq!(ring.posted(lane), model.posted[lane]);
                prop_assert_eq!(ring.acked(lane), model.acked[lane]);
                prop_assert_eq!(ring.completion_reply(lane), &model.last[lane][..]);
                prop_assert_eq!(ring.now(lane), model.inner.now(lane));
            }
            prop_assert_eq!(ring.bytes_copied(), model.bytes_copied());
        }
    }
}
