//! The `Transport` trait: one serving surface for every IPC personality.
//!
//! A [`Transport`] owns a set of *lanes* — per-server-thread connections,
//! each with its own shared buffer and its own simulated core clock
//! (§4.4's rule that connections bound concurrency). The dispatcher, the
//! retry/recovery machinery, the load generator, the chaos harness and
//! the differential suite are all generic over this trait, so the five
//! IPC personalities (SkyBridge direct server calls; seL4, Fiasco.OC and
//! Zircon kernel IPC; MPK protection-key crossings) differ only in how
//! `call` crosses the protection boundary — never in marshalling, buffer
//! handling or accounting.

use sb_observe::{Recorder, SpanKind};
use sb_sim::Cycles;

use crate::envelope::Envelope;
use crate::wire::Request;

/// Why a call failed.
#[derive(Debug, Clone)]
pub enum CallError {
    /// The handler overran the per-call budget; carries the handler's
    /// elapsed simulated cycles.
    Timeout {
        /// Cycles the handler consumed before control was forced back.
        elapsed: Cycles,
    },
    /// Any other failure (fault, broken binding, kernel error).
    Failed(String),
    /// The reply left in the lane answers a *different* request: its
    /// wire-header correlation id does not match the outstanding call.
    /// Accepting it silently would hand one client another client's
    /// (or an earlier retry's) data, so the transport refuses instead.
    CorrMismatch {
        /// The outstanding request's id.
        expected: u64,
        /// The id stamped in the lane's reply header.
        got: u64,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Timeout { elapsed } => {
                write!(f, "call timed out after {elapsed} cycles")
            }
            CallError::Failed(why) => write!(f, "call failed: {why}"),
            CallError::CorrMismatch { expected, got } => write!(
                f,
                "reply correlation mismatch: expected {expected}, lane holds {got}"
            ),
        }
    }
}

/// Verifies that the reply sitting in `lane` answers request `corr`.
/// Every lane-buffered transport runs this at the tail of a successful
/// `call`; the helper lives here so the check (and its error shape) is
/// identical across personalities.
pub fn verify_reply_corr(lane: &crate::wire::Lane, corr: u64) -> Result<(), CallError> {
    match lane.reply_corr() {
        Some(got) if got == corr => Ok(()),
        Some(got) => Err(CallError::CorrMismatch {
            expected: corr,
            got,
        }),
        None => Err(CallError::Failed(
            "reply lane holds no parseable wire header".to_string(),
        )),
    }
}

/// The per-entry completion callback [`Transport::call_batch`] drives:
/// `(entry index, call outcome, reply bytes)` — the reply view is only
/// valid for the duration of the callback.
pub type BatchComplete<'a> = dyn FnMut(usize, Result<usize, CallError>, &[u8]) + 'a;

/// A serving transport: per-lane clocks plus the ability to execute one
/// call synchronously on one lane.
///
/// Lanes are indexed `0..lanes()`; each owns one simulated core, so
/// transport time only moves forward per lane and the dispatcher can
/// treat `now(lane)` as that lane's availability time.
pub trait Transport {
    /// Display label (personality).
    fn label(&self) -> &str;

    /// Number of serving lanes (worker connections).
    fn lanes(&self) -> usize;

    /// Lane `lane`'s current clock.
    fn now(&mut self, lane: usize) -> Cycles;

    /// Idles lane `lane` forward to at least `time`.
    fn wait_until(&mut self, lane: usize, time: Cycles);

    /// (Re-)establishes lane `lane`'s binding — rebind a dropped
    /// connection, respawn a dead endpoint. Returns whether anything was
    /// (re)bound; the default has nothing to bind.
    fn bind(&mut self, _lane: usize) -> bool {
        false
    }

    /// Executes one call to completion on `lane`: the request's wire
    /// image is placed in the lane's shared buffer exactly once, served
    /// in place, and the reply left in the caller-visible half. Advances
    /// the lane's clock by the full service time and returns the reply
    /// length.
    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError>;

    /// View of the last reply on `lane` — the caller-visible half of the
    /// lane's buffer. Valid until the next `call` on the same lane.
    fn reply(&self, lane: usize) -> &[u8];

    /// Serves a batch of requests on `lane`, invoking `complete` once
    /// per served entry — in order, with the entry index
    /// ([`BatchComplete`]), the call outcome, and a view of the reply
    /// bytes (empty on error; only valid for the duration of the
    /// callback).
    ///
    /// Returns the number of entries *consumed* from the front of
    /// `reqs`: `complete` is called exactly once for each of
    /// `0..consumed` and never for the rest, so a transport that aborts
    /// a batch mid-way (server death, forced timeout return) leaves the
    /// tail unserved for the caller to retry on a later crossing.
    ///
    /// The default serves each entry with its own [`Transport::call`] —
    /// one crossing per request, faults and accounting per entry —
    /// which keeps every personality (and fault decorators like
    /// `Faulty`) correct with zero extra work. Transports with a real
    /// batched crossing (SkyBridge's doorbell drain) override this to
    /// pay the boundary once per batch.
    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        for (i, req) in reqs.iter().enumerate() {
            match self.call(lane, req) {
                Ok(n) => complete(i, Ok(n), self.reply(lane)),
                Err(e) => complete(i, Err(e), &[]),
            }
        }
        reqs.len()
    }

    /// Attempts to repair lane `lane`'s serving path after a
    /// [`CallError::Failed`] — revive a crashed server, then rebind. The
    /// default defers to [`Transport::bind`].
    fn recover(&mut self, lane: usize) -> bool {
        self.bind(lane)
    }

    /// Arms a "forgot to restore PKRU" bug on `lane`: the next domain
    /// crossing loads a stale rights value and the handler faults on its
    /// own records until [`Transport::recover`] re-arms the lane.
    /// Returns whether the transport actually has per-lane PKRU state to
    /// go stale — only the MPK personality does; the default cannot
    /// misbehave and returns `false`, so the chaos harness rescinds the
    /// injection.
    fn inject_pkru_stale(&mut self, _lane: usize) -> bool {
        false
    }

    /// Total bytes the transport's marshalling layer has physically
    /// copied since construction (the numerator of the benchmark's
    /// `transport.bytes_copied_per_op`).
    fn bytes_copied(&self) -> u64 {
        0
    }

    /// Hands the transport a [`Recorder`] to emit trace events into
    /// (lane `n` of the transport maps to recorder lane `n`). The
    /// default ignores it — a transport without instrumentation still
    /// satisfies the trait.
    fn attach_recorder(&mut self, _recorder: Recorder) {}

    /// Machine-wide PMU counters for the simulated cores underneath
    /// this transport, when it has real simulated hardware (the
    /// kernel-backed transports do; synthetic ones return `None`).
    /// Flight-recorder bundles attach this to postmortems.
    fn pmu(&self) -> Option<sb_sim::Pmu> {
        None
    }
}

/// Boxed transports forward every method — including overridden
/// `call_batch` fast paths — so `RingTransport<Box<dyn Transport>>`
/// and friends lose nothing to the indirection.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn label(&self) -> &str {
        (**self).label()
    }

    fn lanes(&self) -> usize {
        (**self).lanes()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        (**self).now(lane)
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        (**self).wait_until(lane, time)
    }

    fn bind(&mut self, lane: usize) -> bool {
        (**self).bind(lane)
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        (**self).call(lane, req)
    }

    fn reply(&self, lane: usize) -> &[u8] {
        (**self).reply(lane)
    }

    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        (**self).call_batch(lane, reqs, complete)
    }

    fn recover(&mut self, lane: usize) -> bool {
        (**self).recover(lane)
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        (**self).inject_pkru_stale(lane)
    }

    fn bytes_copied(&self) -> u64 {
        (**self).bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        (**self).attach_recorder(recorder)
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        (**self).pmu()
    }
}

/// A synthetic transport with a constant service time and no kernel
/// underneath — deterministic, cheap, fast enough for property tests
/// over millions of arrivals. Its crossing is a clock bump.
#[derive(Debug, Default)]
pub struct FixedServiceTransport {
    /// The lanes, meter, recorder and stale-reply seam.
    pub envelope: Envelope,
    clocks: Vec<Cycles>,
    service: Cycles,
    label: String,
}

impl FixedServiceTransport {
    /// `lanes` parallel lanes, each serving any request in exactly
    /// `service` cycles.
    pub fn new(lanes: usize, service: Cycles) -> Self {
        assert!(lanes > 0, "at least one lane");
        FixedServiceTransport {
            envelope: Envelope::new(lanes),
            clocks: vec![0; lanes],
            service,
            label: format!("fixed:{service}"),
        }
    }
}

impl Transport for FixedServiceTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn lanes(&self) -> usize {
        self.clocks.len()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.clocks[lane]
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        let c = &mut self.clocks[lane];
        *c = (*c).max(time);
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let t0 = self.clocks[lane];
        self.envelope.encode(lane, req, 0);
        self.clocks[lane] += self.service;
        let out = self.envelope.settle(lane, req.id, Ok(req.payload_len()));
        // The whole call is one leaf: a complete `Call` span.
        self.envelope
            .span(lane, SpanKind::Call, t0, self.clocks[lane], req.id);
        out
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.envelope.reply(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.envelope.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.envelope.attach_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(key: u64, write: bool, payload: usize) -> Request {
        Request {
            id: 0,
            arrival: 0,
            key,
            write,
            payload,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn fixed_transport_advances_per_lane() {
        let mut t = FixedServiceTransport::new(2, 100);
        t.call(0, &req(0, false, 16)).unwrap();
        assert_eq!(t.now(0), 100);
        assert_eq!(t.now(1), 0);
        t.wait_until(1, 250);
        assert_eq!(t.now(1), 250);
        t.wait_until(1, 10); // Never moves backwards.
        assert_eq!(t.now(1), 250);
    }

    #[test]
    fn fixed_transport_replies_echo_in_place() {
        let mut t = FixedServiceTransport::new(1, 10);
        let r = req(0xfeed, true, 64);
        let n = t.call(0, &r).unwrap();
        assert_eq!(n, 64);
        assert_eq!(t.reply(0), r.encode());
        assert!(t.bytes_copied() > 0, "the single encode is metered");
    }

    #[test]
    fn stale_reply_is_refused_not_served() {
        crate::envelope::tests::stale_reply_is_refused_once_on_its_lane(
            FixedServiceTransport::new(2, 10),
            |t| &mut t.envelope,
        );
    }
}
