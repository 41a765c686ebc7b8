//! The per-lane envelope every wire-staging transport shares.
//!
//! The paper's crossing contract is the same for every server thread:
//! small arguments ride in registers and the payload is written once
//! into that thread's shared buffer (§4.4). [`Envelope`] is the one
//! place this repo enforces it: each lane's staging image ([`Lane`]),
//! the [`CopyMeter`] counting the marshalling copy, the [`Recorder`] and
//! the `Call` span around every call, the one-shot stale-reply seam, and
//! the reply-corr check that refuses a reply answering another request.
//! A personality owns only its crossing — SkyBridge's trampoline,
//! kernel `ipc_call`/`ipc_reply`, the `WRPKRU` pair, or a fixed clock
//! bump — and brackets it with [`Envelope::open`] / [`Envelope::close`].

use sb_mem::MemFault;
use sb_microkernel::{Kernel, ThreadId};
use sb_observe::{Recorder, SpanKind};
use sb_sim::Cycles;

use crate::transport::{verify_reply_corr, CallError};
use crate::wire::{CopyMeter, Lane, Request};

/// One transport's lanes with their meter, recorder and stale-reply
/// seam.
#[derive(Debug, Default)]
pub struct Envelope {
    lanes: Vec<Lane>,
    meter: CopyMeter,
    recorder: Recorder,
    stale: Option<(usize, u64)>,
}

impl Envelope {
    /// `lanes` empty lanes, a fresh meter and a recorder that is off.
    pub fn new(lanes: usize) -> Self {
        Envelope {
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
            ..Envelope::default()
        }
    }

    /// Encodes `req` into `lane`'s staging image — the call's one
    /// metered marshalling copy — and returns the wire image.
    #[inline]
    pub fn encode(&mut self, lane: usize, req: &Request, deadline: Cycles) -> &[u8] {
        self.lanes[lane].encode(req, deadline, &self.meter)
    }

    /// [`Envelope::encode`] for a personality with no register channel
    /// (kernel IPC, MPK): the whole wire image then goes into `tid`'s
    /// message buffer as the call's one simulated write. Returns the
    /// wire length.
    #[inline]
    pub(crate) fn stage(
        &mut self,
        k: &mut Kernel,
        lane: usize,
        tid: ThreadId,
        req: &Request,
    ) -> Result<usize, MemFault> {
        let wire = self.lanes[lane].encode(req, 0, &self.meter);
        let buf = k.threads[tid].msg_buf;
        k.user_write(tid, buf, wire)?;
        Ok(wire.len())
    }

    /// The payload half of `lane`: the request as served in place, and
    /// the echo reply once the call returns.
    #[inline]
    pub fn reply(&self, lane: usize) -> &[u8] {
        self.lanes[lane].reply()
    }

    /// Copies a materialised (non-echo) reply into `lane`, metered, and
    /// returns its length.
    #[inline]
    pub fn set_reply(&mut self, lane: usize, bytes: &[u8]) -> usize {
        self.meter.add(bytes.len());
        self.lanes[lane].set_reply(bytes);
        bytes.len()
    }

    /// Bytes the marshalling layer has copied so far.
    #[inline]
    pub fn bytes_copied(&self) -> u64 {
        self.meter.total()
    }

    /// Records one complete span of the crossing's interior (or, for a
    /// leaf transport, the whole `Call`).
    #[inline]
    pub(crate) fn span(&self, lane: usize, kind: SpanKind, t0: Cycles, t1: Cycles, corr: u64) {
        self.recorder.span(lane, kind, t0, t1, corr);
    }

    /// Replaces the recorder.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Restamps the reply header of the *next* call settled on `lane`
    /// with a stale correlation id — the injection seam for proving a
    /// call refuses a reply that answers a different request.
    pub fn poison_next_reply_corr(&mut self, lane: usize, corr: u64) {
        self.stale = Some((lane, corr));
    }

    /// Opens `req`'s `Call` span on `lane` at `t`.
    #[inline]
    pub fn open(&self, lane: usize, req: &Request, t: Cycles) {
        self.recorder.begin(lane, SpanKind::Call, t, req.id);
    }

    /// Settles a crossing's outcome on `lane`: fires an armed stale-reply
    /// seam, then refuses a reply whose header corr is not `corr`.
    #[inline]
    pub fn settle(
        &mut self,
        lane: usize,
        corr: u64,
        out: Result<usize, CallError>,
    ) -> Result<usize, CallError> {
        if let Some((l, stale)) = self.stale {
            if l == lane {
                self.lanes[lane].set_reply_corr(stale);
                self.stale = None;
            }
        }
        out.and_then(|n| verify_reply_corr(&self.lanes[lane], corr).map(|()| n))
    }

    /// [`Envelope::settle`]s `out` and closes the `Call` span
    /// [`Envelope::open`] opened, at `t`.
    #[inline]
    pub fn close(
        &mut self,
        lane: usize,
        req: &Request,
        out: Result<usize, CallError>,
        t: Cycles,
    ) -> Result<usize, CallError> {
        let out = self.settle(lane, req.id, out);
        self.recorder.end(lane, SpanKind::Call, t, req.id);
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::Transport;

    /// Drives the one stale-reply seam on a two-lane `t`: a reply whose
    /// header corr answers another request is refused with the
    /// `(expected, got)` pair, never served; the seam waits for its own
    /// lane and fires once.
    pub(crate) fn stale_reply_is_refused_once_on_its_lane<T: Transport>(
        mut t: T,
        envelope: impl Fn(&mut T) -> &mut Envelope,
    ) {
        let label = t.label().to_string();
        envelope(&mut t).poison_next_reply_corr(0, 3);
        let r = Request {
            id: 8,
            arrival: 0,
            key: 1,
            write: false,
            payload: 64,
            client: None,
            tenant: 0,
        };
        assert_eq!(
            t.call(1, &r).unwrap(),
            64,
            "{label}: another lane is untouched"
        );
        match t.call(0, &r) {
            Err(CallError::CorrMismatch { expected, got }) => {
                assert_eq!((expected, got), (8, 3), "{label}");
            }
            other => panic!("{label}: expected CorrMismatch, got {other:?}"),
        }
        assert_eq!(
            t.call(0, &r).unwrap(),
            64,
            "{label}: one-shot, the lane heals"
        );
    }
}
