//! The SkyBridge-backed transport.
//!
//! One server process registers its handler with `connections` equal to
//! the lane count — the paper's rule that SkyBridge maps one shared
//! buffer and one server stack *per server thread* (§4.4), so connections
//! bound concurrency. Each lane is a separate client process with one
//! thread pinned to its own simulated core, holding its own connection
//! slot (and therefore its own shared buffer). Serving a request is a
//! real `direct_server_call`: trampoline, VMFUNC, key check, handler in
//! the server space on the migrated thread, VMFUNC back.
//!
//! The call path is zero-copy end-to-end: the request is encoded once
//! into the lane's staging image ([`sb_transport::Lane::encode`]), the
//! wire header rides the register image the trampoline carries (small
//! args in registers, exactly the paper's design), the payload is
//! written once into the connection's shared buffer and served in
//! place, and the echo reply is the payload half of the lane — no
//! `to_vec()`, no read-back.
//! The lanes, meter, recorder, `Call` span, stale-reply seam and
//! reply-corr check are `sb-transport`'s [`Envelope`], and the handler
//! is [`ServiceSpec::serve_record`]: the trampoline is all this
//! transport owns.

use sb_faultplane::FaultHandle;
use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId};
use sb_observe::Recorder;
use sb_rewriter::corpus;
use sb_sim::Cycles;
use sb_transport::{
    BatchComplete, CallError, Envelope, Request, ServiceSpec, Transport, DATA_BASE,
};
use skybridge::{HandlerReply, SbError, ServerId, SkyBridge};

/// The SkyBridge transport.
pub struct SkyBridgeTransport {
    /// The kernel (exposed for PMU access in benches).
    pub k: Kernel,
    /// Per-lane staging images of the connections' shared buffers, with
    /// the meter, recorder and stale-reply seam.
    pub envelope: Envelope,
    sb: SkyBridge,
    server: ServerId,
    /// Lane `l`'s client thread, pinned to core `l`.
    clients: Vec<ThreadId>,
    /// Whether lane `l` currently holds a connection slot (a rebind
    /// that hits injected slot exhaustion leaves the lane unbound).
    bound: Vec<bool>,
}

impl SkyBridgeTransport {
    /// Boots a Rootkernel-backed machine and wires `lanes` client
    /// threads (one per core, one connection slot each) to one server
    /// process running `spec`'s service work.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds the simulated core count.
    pub fn new(lanes: usize, spec: &ServiceSpec) -> Self {
        let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
        assert!(
            lanes >= 1 && lanes <= k.machine.num_cores(),
            "lanes must fit the machine's cores"
        );
        let server_pid = k.create_process(&corpus::generate(0x5b_01, 4096, 0));
        let server_tid = k.create_thread(server_pid, 0);
        k.map_heap(server_pid, DATA_BASE, spec.data_pages());

        let mut sb = SkyBridge::new();
        sb.timeout = spec.timeout;
        let service = spec.clone();
        let server = sb
            .register_server(
                &mut k,
                server_tid,
                lanes,
                spec.footprint,
                Box::new(move |_sb, k, ctx, req| {
                    service.serve_record(k, ctx.caller, req)?;
                    // Echo the request — the service contract every
                    // transport implements, served in place from the
                    // shared buffer (no reply bytes materialised).
                    Ok(HandlerReply::Echo)
                }),
            )
            .expect("server registration");

        let mut clients = Vec::with_capacity(lanes);
        for l in 0..lanes {
            let pid = k.create_process(&corpus::generate(0xc11e_4200 + l as u64, 2048, 0));
            let tid = k.create_thread(pid, l);
            sb.register_client(&mut k, tid, server)
                .expect("one connection per lane");
            k.run_thread(tid);
            clients.push(tid);
        }
        SkyBridgeTransport {
            k,
            envelope: Envelope::new(lanes),
            sb,
            server,
            clients,
            bound: vec![true; lanes],
        }
    }

    /// Attempts to bind one more client process beyond the per-lane
    /// connections. With every slot taken this must fail cleanly with
    /// [`SbError::NoFreeConnection`] — the shared-buffer exhaustion path.
    pub fn try_extra_client(&mut self) -> Result<(), SbError> {
        let pid = self.k.create_process(&corpus::generate(
            0xeeee + self.clients.len() as u64,
            2048,
            0,
        ));
        let tid = self.k.create_thread(pid, 0);
        self.sb.register_client(&mut self.k, tid, self.server)
    }

    /// Recorded security violations (timeouts land here too).
    pub fn violations(&self) -> usize {
        self.sb.violations.len()
    }

    /// Attaches a live fault plane to the underlying SkyBridge facility —
    /// handler panics/hangs, key corruption, EPTP eviction, and slot
    /// exhaustion all inject from it.
    pub fn attach_faults(&mut self, faults: FaultHandle) {
        self.sb.attach_faults(faults);
    }

    /// The facility's fault plane (report collection).
    pub fn faults(&self) -> FaultHandle {
        self.sb.faults().clone()
    }
}

impl Transport for SkyBridgeTransport {
    fn label(&self) -> &str {
        "skybridge"
    }

    fn lanes(&self) -> usize {
        self.clients.len()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.k.machine.cpu(lane).tsc
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.k.machine.wait_until(lane, time);
    }

    fn bind(&mut self, lane: usize) -> bool {
        // (Re-)acquire this lane's connection slot. A lane can be merely
        // unbound — a previous rebind hit injected slot exhaustion — in
        // which case recovery is just the rebind.
        if self.bound[lane] {
            return false;
        }
        let tid = self.clients[lane];
        if self
            .sb
            .register_client(&mut self.k, tid, self.server)
            .is_err()
        {
            return false;
        }
        self.bound[lane] = true;
        self.k.run_thread(tid);
        true
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        // One marshalling write per call: the wire image lands in the
        // lane's staging buffer. The header's small args ride the
        // register image (the trampoline's registers); the payload is
        // written once into the shared buffer and served in place.
        self.envelope.open(lane, req, self.k.machine.cpu(lane).tsc);
        let deadline = self.sb.timeout.map_or(0, |t| req.arrival.saturating_add(t));
        self.envelope.encode(lane, req, deadline);
        // Stamp the facility's trace id: every interior span of this
        // call — and of any nested call a handler makes — carries the
        // wire corr, so span trees assemble per request.
        self.sb.set_trace_corr(req.id);
        let payload = self.envelope.reply(lane);
        let out = match self.sb.direct_server_call_raw(
            &mut self.k,
            self.clients[lane],
            self.server,
            payload,
        ) {
            // Echo served in place: the reply is the lane's payload half.
            Ok((None, _)) => Ok(payload.len()),
            // A non-echo reply (none on the serving hot path): copy it
            // into the lane so `reply` stays a buffer view.
            Ok((Some(v), _)) => Ok(self.envelope.set_reply(lane, &v)),
            Err(SbError::Timeout { elapsed, .. }) => Err(CallError::Timeout { elapsed }),
            Err(e) => Err(CallError::Failed(e.to_string())),
        };
        self.envelope
            .close(lane, req, out, self.k.machine.cpu(lane).tsc)
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.envelope.reply(lane)
    }

    /// The native doorbell drain: one trampoline + VMFUNC crossing for
    /// the whole batch ([`SkyBridge::batch_begin`] / `batch_end`), each
    /// frame served on the migrated thread inside it. Per-entry faults
    /// keep their direct-mode semantics — a handler panic or a forced
    /// timeout return closes the crossing early and leaves the tail of
    /// the batch unconsumed for the ring to retry after recovery.
    fn call_batch(&mut self, lane: usize, reqs: &[Request], complete: &mut BatchComplete) -> usize {
        if reqs.is_empty() {
            return 0;
        }
        let mut session = match self
            .sb
            .batch_begin(&mut self.k, self.clients[lane], self.server)
        {
            Ok(s) => s,
            Err(e) => {
                // The crossing itself was refused (unbound lane, dead
                // server, refused key): fail the head entry so the ring
                // always makes progress; the rest stay queued for a
                // later crossing after recovery.
                complete(0, Err(CallError::Failed(e.to_string())), &[]);
                return 1;
            }
        };
        let mut consumed = 0;
        for (i, req) in reqs.iter().enumerate() {
            let deadline = self.sb.timeout.map_or(0, |t| req.arrival.saturating_add(t));
            self.envelope.encode(lane, req, deadline);
            let payload = self.envelope.reply(lane);
            let out = self
                .sb
                .batch_serve(&mut self.k, &mut session, payload, req.id);
            consumed = i + 1;
            let served = match out {
                Ok(None) => payload.len(),
                Ok(Some(v)) => self.envelope.set_reply(lane, &v),
                Err(SbError::Timeout { elapsed, .. }) => {
                    complete(i, Err(CallError::Timeout { elapsed }), &[]);
                    break; // The forced return (§7) closed the session.
                }
                Err(e) => {
                    complete(i, Err(CallError::Failed(e.to_string())), &[]);
                    break; // The error path closed the session.
                }
            };
            let settled = self.envelope.settle(lane, req.id, Ok(served));
            complete(i, settled, self.envelope.reply(lane));
            if !session.is_open() {
                break;
            }
        }
        let _ = self.sb.batch_end(&mut self.k, session);
        consumed
    }

    fn recover(&mut self, lane: usize) -> bool {
        // The crash-recovery path: revive the dead server process, then
        // rebind this lane's connection (unbind frees the slot so the
        // rebind can't exhaust the connection space).
        let dead = self.sb.server_dead(self.server);
        if !dead && self.bound[lane] {
            return false;
        }
        if self.bound[lane] {
            let pid = self.k.threads[self.clients[lane]].process;
            self.sb.unbind_client(pid, self.server);
            self.bound[lane] = false;
        }
        if dead {
            self.sb.revive_server(&mut self.k, self.server);
        }
        self.bind(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.envelope.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        // The facility emits the interior phase spans (trampoline /
        // switch / handler); the envelope wraps them in the Call span.
        self.sb.set_recorder(recorder.clone());
        self.envelope.attach_recorder(recorder);
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        Some(self.k.machine.pmu_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, key: u64, write: bool) -> Request {
        Request {
            id,
            arrival: 0,
            key,
            write,
            payload: 64,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn serves_on_distinct_cores() {
        let spec = ServiceSpec::default();
        let mut t = SkyBridgeTransport::new(2, &spec);
        let t0 = t.now(0);
        t.call(0, &mk(0, 7, true)).unwrap();
        assert!(t.now(0) > t0, "serving must consume cycles");
        let t1 = t.now(1);
        t.call(1, &mk(1, 7, false)).unwrap();
        assert!(t.now(1) > t1);
    }

    #[test]
    fn echo_reply_is_served_in_place() {
        let mut t = SkyBridgeTransport::new(1, &ServiceSpec::default());
        let r = mk(3, 0xbeef, true);
        let before = t.bytes_copied();
        let n = t.call(0, &r).unwrap();
        assert_eq!(n, 64);
        assert_eq!(t.reply(0), r.encode(), "echo contract");
        // Exactly one marshalling copy per call: the lane encode.
        assert_eq!(t.bytes_copied() - before, r.wire_len() as u64);
    }

    #[test]
    fn connection_slots_are_exhausted_cleanly() {
        let mut t = SkyBridgeTransport::new(2, &ServiceSpec::default());
        assert!(matches!(
            t.try_extra_client(),
            Err(SbError::NoFreeConnection)
        ));
    }

    #[test]
    fn stale_reply_corr_is_refused() {
        // The same check as sb-transport's envelope test helper, which
        // this crate's tests cannot see.
        let mut t = SkyBridgeTransport::new(2, &ServiceSpec::default());
        t.envelope.poison_next_reply_corr(0, 99);
        assert_eq!(
            t.call(1, &mk(1, 7, false)).unwrap(),
            64,
            "other lane untouched"
        );
        match t.call(0, &mk(1, 7, false)) {
            Err(CallError::CorrMismatch { expected, got }) => {
                assert_eq!((expected, got), (1, 99));
            }
            other => panic!("expected CorrMismatch, got {other:?}"),
        }
        // One-shot: the lane heals on the next encode.
        assert_eq!(t.call(0, &mk(2, 7, false)).unwrap(), 64);
    }

    #[test]
    fn timeout_budget_is_enforced_per_call() {
        let spec = ServiceSpec {
            timeout: Some(1), // Nothing real finishes in one cycle.
            ..ServiceSpec::default()
        };
        let mut t = SkyBridgeTransport::new(1, &spec);
        match t.call(0, &mk(0, 3, false)) {
            Err(CallError::Timeout { elapsed }) => assert!(elapsed > 1),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(t.violations() > 0, "the Subkernel records the violation");
    }
}
