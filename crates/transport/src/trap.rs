//! The trap-based (synchronous kernel IPC) transport.
//!
//! The multi-threaded-server shape every microkernel personality uses in
//! the paper's throughput experiments: the server process runs one thread
//! per core, each receive-blocked on its own endpoint; lane `l`'s client
//! process runs on the same core, so each call takes the same-core IPC
//! path (the fastpath where the personality and message size allow it).
//! Serving a request is `ipc_call` → server-side work → `ipc_reply`.
//!
//! Unlike SkyBridge — where the wire header rides the trampoline's
//! register image — kernel IPC carries no registers across the boundary,
//! so the full wire image (header + payload) is written once into the
//! client's message buffer ([`Envelope`]'s staging). The server parses it
//! in place (charge-only reads — the bytes are already staged host-side
//! in the lane) and the echo reply is the lane's payload half; no
//! read-back copies anywhere. The crossing — the two kernel IPC legs —
//! is all this transport owns.

use sb_mem::walk::Access;
use sb_microkernel::{EndpointId, Kernel, KernelConfig, Personality, ThreadId};
use sb_observe::{Recorder, SpanKind};
use sb_rewriter::corpus;
use sb_sim::Cycles;

use crate::envelope::Envelope;
use crate::service::{ServiceSpec, DATA_BASE};
use crate::transport::{CallError, Transport};
use crate::wire::{Request, WIRE_HEADER_LEN};

/// One lane: its client and server threads, the endpoint the server
/// receives on and the client's send slot to it. A recovery replaces
/// only the server thread.
#[derive(Clone, Copy)]
struct TrapWorker {
    client: ThreadId,
    server: ThreadId,
    ep: EndpointId,
    cap: usize,
}

/// The kernel-IPC transport.
pub struct TrapIpcTransport {
    /// The kernel (exposed for PMU access in benches).
    pub k: Kernel,
    /// The lanes, meter, recorder and stale-reply seam.
    pub envelope: Envelope,
    server_pid: usize,
    workers: Vec<TrapWorker>,
    spec: ServiceSpec,
}

impl TrapIpcTransport {
    /// Boots a native (no hypervisor) machine under `personality` and
    /// wires `lanes` client/server thread pairs, one per core.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds the simulated core count.
    pub fn new(personality: Personality, lanes: usize, spec: &ServiceSpec) -> Self {
        let mut k = Kernel::boot(KernelConfig::native(personality));
        assert!(
            lanes >= 1 && lanes <= k.machine.num_cores(),
            "lanes must fit the machine's cores"
        );
        let server_pid = k.create_process(&corpus::generate(0x7a_01, 4096, 0));
        k.map_heap(server_pid, DATA_BASE, spec.data_pages());

        let mut ws = Vec::with_capacity(lanes);
        for l in 0..lanes {
            let server_tid = k.create_thread(server_pid, l);
            let (ep, _recv_slot) = k.create_endpoint(server_pid);
            k.server_recv(server_tid, ep);
            let client_pid = k.create_process(&corpus::generate(0xc11e_7700 + l as u64, 2048, 0));
            let client_tid = k.create_thread(client_pid, l);
            let cap = k.grant_send(client_pid, ep);
            k.run_thread(client_tid);
            ws.push(TrapWorker {
                client: client_tid,
                server: server_tid,
                ep,
                cap,
            });
        }
        TrapIpcTransport {
            k,
            envelope: Envelope::new(lanes),
            server_pid,
            workers: ws,
            spec: spec.clone(),
        }
    }

    /// One section of the call: runs `f`, then emits its span post-hoc,
    /// so an error leaves the section's span out — never half-open.
    fn section<T>(
        &mut self,
        lane: usize,
        kind: SpanKind,
        corr: u64,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, CallError> {
        let t0 = self.k.machine.cpu(lane).tsc;
        let out = f(self).map_err(CallError::Failed)?;
        let t1 = self.k.machine.cpu(lane).tsc;
        self.envelope.span(lane, kind, t0, t1, corr);
        Ok(out)
    }

    /// The crossing: marshal, `ipc_call`, the in-place handler on the
    /// server thread, `ipc_reply`, and the client's charge-only read of
    /// the echo reply.
    fn cross(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let w = self.workers[lane];
        let wire_len = self.section(lane, SpanKind::Marshal, req.id, |t| {
            t.envelope
                .stage(&mut t.k, lane, w.client, req)
                .map_err(|e| e.to_string())
        })?;
        self.section(lane, SpanKind::KernelIpc, req.id, |t| {
            t.k.ipc_call(w.client, w.cap, wire_len)
                .map_err(|e| format!("{e:?}"))
        })?;
        let reply_len = self.section(lane, SpanKind::Handler, req.id, |t| {
            t.spec
                .serve_in_place(&mut t.k, w.server, wire_len, t.envelope.reply(lane))
                .map_err(|e| e.to_string())
        })?;
        self.section(lane, SpanKind::KernelIpc, req.id, |t| {
            t.k.ipc_reply(w.server, w.client, wire_len)
                .map_err(|e| format!("{e:?}"))
        })?;
        self.section(lane, SpanKind::Marshal, req.id, |t| {
            let reply = t.k.threads[w.client].msg_buf.add(WIRE_HEADER_LEN as u64);
            t.k.user_touch(w.client, reply, reply_len, Access::Read)
                .map_err(|e| e.to_string())
        })?;
        Ok(reply_len)
    }
}

impl Transport for TrapIpcTransport {
    fn label(&self) -> &str {
        self.k.personality.name
    }

    fn lanes(&self) -> usize {
        self.workers.len()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.k.machine.cpu(lane).tsc
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.k.machine.wait_until(lane, time);
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        self.envelope.open(lane, req, self.k.machine.cpu(lane).tsc);
        let out = self.cross(lane, req);
        self.envelope
            .close(lane, req, out, self.k.machine.cpu(lane).tsc)
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.envelope.reply(lane)
    }

    fn recover(&mut self, lane: usize) -> bool {
        // Supervisor restart: kill the lane's server thread (if it is
        // somehow still scheduled) and respawn it receive-blocked on the
        // lane's endpoint, which the client's send slot still names.
        let w = &mut self.workers[lane];
        self.k.kill_thread(w.server);
        w.server = self.k.create_thread(self.server_pid, lane);
        self.k.rebind(w.server, w.ep);
        self.k.run_thread(w.client);
        true
    }

    fn bytes_copied(&self) -> u64 {
        self.envelope.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.envelope.attach_recorder(recorder);
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        Some(self.k.machine.pmu_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(key: u64, write: bool) -> Request {
        Request {
            id: 0,
            arrival: 0,
            key,
            write,
            payload: 64,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn round_trips_on_every_personality() {
        for p in Personality::all() {
            let mut t = TrapIpcTransport::new(p, 2, &ServiceSpec::default());
            let (t0, w0) = (t.now(1), t.now(0));
            t.call(1, &req(9, true)).unwrap();
            t.call(1, &req(9, false)).unwrap();
            assert_eq!(t.reply(1), req(9, false).encode(), "echo contract");
            assert!(t.now(1) > t0);
            assert_eq!(t.now(0), w0, "lane 0 untouched");
        }
    }

    #[test]
    fn stale_reply_corr_is_refused_on_every_personality() {
        for p in Personality::all() {
            crate::envelope::tests::stale_reply_is_refused_once_on_its_lane(
                TrapIpcTransport::new(p, 2, &ServiceSpec::default()),
                |t| &mut t.envelope,
            );
        }
    }

    #[test]
    fn one_marshalling_copy_per_call() {
        let mut t = TrapIpcTransport::new(Personality::sel4(), 1, &ServiceSpec::default());
        let r = req(5, false);
        let before = t.bytes_copied();
        t.call(0, &r).unwrap();
        assert_eq!(t.bytes_copied() - before, r.wire_len() as u64);
    }

    #[test]
    fn recovery_reuses_the_lane_endpoint_and_send_slot() {
        let mut t = TrapIpcTransport::new(Personality::sel4(), 1, &ServiceSpec::default());
        let client = t.k.threads[t.workers[0].client].process;
        let tables = |t: &TrapIpcTransport| {
            (
                t.k.processes[client].caps.len(),
                t.k.processes[t.server_pid].caps.len(),
                t.k.endpoints.len(),
            )
        };
        let before = tables(&t);
        for i in 0..10 {
            assert!(t.recover(0));
            t.call(0, &req(i, false)).unwrap();
        }
        assert_eq!(tables(&t), before, "a recovery grew the kernel's tables");
    }
}
