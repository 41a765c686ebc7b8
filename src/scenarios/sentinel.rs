//! Multi-hop sentinel scenarios: nested IPC chains under causal tracing.
//!
//! The sentinel's trace assembly is only worth trusting if it survives
//! realistic request shapes: a client call that fans *through* several
//! servers (client → db → fs), each hop carrying the same wire `corr`.
//! This module builds those chains for every IPC personality:
//!
//! * [`skybridge_chain`] — `depth` SkyBridge servers where server *i*'s
//!   handler makes a nested `direct_server_call` into server *i+1*
//!   (the Figure 1 pipeline generalized to arbitrary depth). Every
//!   interior phase span of every hop lands in the recorder with the
//!   stamped trace id, and the scenario wraps each request in an exact
//!   end-to-end `Call` span.
//! * [`chain_for`] — on any other backend, sequential hops on one lane
//!   of its serving transport (kernel IPC under a trap personality,
//!   two-flip crossings under MPK), all hops sharing the request's id,
//!   wrapped the same way.
//!
//! Each run reports the client-observed end-to-end cycles per request,
//! so tests can assert the assembled span tree's critical path against
//! ground truth the simulator itself measured.

use sb_microkernel::{Kernel, KernelConfig, Personality, ThreadId};
use sb_observe::{Recorder, SpanKind};
use sb_runtime::{Request, Transport};
use sb_sim::Cycles;
use skybridge::{ServerId, SkyBridge};

use crate::scenarios::runtime::{build_backend, Backend, ServingScenario};

/// Cycles of synthetic handler work each hop performs before forwarding
/// (or replying, at the leaf).
const HOP_WORK: Cycles = 150;

/// Wire bytes per chain request.
const CHAIN_PAYLOAD: usize = 64;

/// One traced multi-hop run.
#[derive(Debug)]
pub struct ChainRun {
    /// The serving personality's label.
    pub label: String,
    /// Servers in the chain (nesting depth).
    pub depth: usize,
    /// `(corr, end_to_end_cycles)` per request — the ground truth the
    /// assembled critical path must reproduce.
    pub requests: Vec<(u64, Cycles)>,
}

fn code(seed: u64, len: usize) -> Vec<u8> {
    sb_rewriter::corpus::generate(seed, len, 0)
}

/// Builds a `depth`-server SkyBridge chain and drives `calls` traced
/// requests through it. Request `c` carries trace id `c + 1`.
pub fn skybridge_chain(depth: usize, calls: u64, recorder: &Recorder) -> ChainRun {
    assert!(depth >= 1, "a chain needs at least one server");
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let client_pid = k.create_process(&code(31, 4096));
    let client = k.create_thread(client_pid, 0);
    let mut bridge = SkyBridge::new();
    bridge.set_recorder(recorder.clone());

    // Register leaf-first so each interior node's handler captures the
    // next server's id; the head of the chain registers last.
    let mut ids: Vec<ServerId> = Vec::new();
    let mut next: Option<ServerId> = None;
    for level in (0..depth).rev() {
        let pid = k.create_process(&code(40 + level as u64, 2048));
        let tid: ThreadId = k.create_thread(pid, 0);
        let handler: skybridge::Handler = match next {
            // The leaf: burn the hop work and echo the request back.
            None => Box::new(move |_sb, k, ctx, req| {
                k.compute(ctx.caller, HOP_WORK);
                Ok(req.to_vec().into())
            }),
            // An interior node: burn the hop work, then make the nested
            // direct server call — its spans inherit the stamped trace
            // id and nest inside this hop's Handler span.
            Some(next_id) => Box::new(move |sb, k, ctx, req| {
                k.compute(ctx.caller, HOP_WORK);
                let (reply, _) = sb.direct_server_call(k, ctx.caller, next_id, req)?;
                Ok(reply.into())
            }),
        };
        let id = bridge
            .register_server(&mut k, tid, 8, 2048, handler)
            .expect("chain server registration");
        next = Some(id);
        ids.push(id);
    }
    // The client's EPTP list carries the whole dependency chain (§4.2):
    // nested hops execute on the client's core under its identity.
    for &id in &ids {
        bridge
            .register_client(&mut k, client, id)
            .expect("chain client binding");
    }
    k.run_thread(client);

    let head = *ids.last().expect("depth >= 1");
    let core = k.core_of(client);
    let payload = vec![0x5au8; CHAIN_PAYLOAD];
    let mut requests = Vec::new();
    for c in 0..calls {
        let corr = c + 1;
        bridge.set_trace_corr(corr);
        let t0 = k.machine.cpu(core).tsc;
        recorder.begin(core, SpanKind::Call, t0, corr);
        bridge
            .direct_server_call(&mut k, client, head, &payload)
            .expect("chain call");
        let t1 = k.machine.cpu(core).tsc;
        recorder.end(core, SpanKind::Call, t1, corr);
        requests.push((corr, t1 - t0));
    }
    ChainRun {
        label: "skybridge".to_string(),
        depth,
        requests,
    }
}

/// Drives `calls` requests of `hops` sequential transport calls each
/// through lane 0 of `t`. All hops of request `c` share trace id
/// `c + 1`; the scenario wraps them in one end-to-end `Call` span so
/// the assembled tree is connected.
fn chain_over<T: Transport>(mut t: T, hops: usize, calls: u64, recorder: &Recorder) -> ChainRun {
    assert!(hops >= 1, "a chain needs at least one hop");
    let label = t.label().to_string();
    t.attach_recorder(recorder.clone());
    let mut requests = Vec::new();
    for c in 0..calls {
        let corr = c + 1;
        let t0 = t.now(0);
        recorder.begin(0, SpanKind::Call, t0, corr);
        for hop in 0..hops {
            let req = Request {
                id: corr,
                arrival: t.now(0),
                key: 7 + hop as u64,
                write: hop % 2 == 0,
                payload: CHAIN_PAYLOAD,
                client: None,
                tenant: 0,
            };
            t.call(0, &req).expect("chain hop");
        }
        let t1 = t.now(0);
        recorder.end(0, SpanKind::Call, t1, corr);
        requests.push((corr, t1 - t0));
    }
    ChainRun {
        label,
        depth: hops,
        requests,
    }
}

/// The chain for any serving backend: nested direct server calls on
/// SkyBridge; elsewhere `depth` sequential same-id hops through the
/// backend's one-lane KV transport — kernel IPC under a trap kernel, an
/// in-place handler between two `WRPKRU` flips under MPK.
pub fn chain_for(backend: &Backend, depth: usize, calls: u64, recorder: &Recorder) -> ChainRun {
    match backend {
        Backend::SkyBridge => skybridge_chain(depth, calls, recorder),
        _ => chain_over(
            build_backend(ServingScenario::Kv, backend, 1),
            depth,
            calls,
            recorder,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_observe::DEFAULT_RING_CAPACITY;
    use sb_sentinel::assemble;

    #[test]
    fn skybridge_chain_is_one_connected_tree_per_request() {
        let rec = Recorder::new(DEFAULT_RING_CAPACITY);
        let run = skybridge_chain(3, 4, &rec);
        let forest = assemble(&rec);
        assert_eq!(
            forest.loss.ring_dropped, 0,
            "the ring must hold a short run"
        );
        assert!(forest.poisoned.is_empty());
        for &(corr, end_to_end) in &run.requests {
            let tr = forest.request(corr).expect("request assembled");
            assert_eq!(tr.roots.len(), 1, "the wrapper span is the single root");
            assert_eq!(tr.roots[0].dur as u64, end_to_end);
            assert_eq!(tr.critical_path_cycles(), end_to_end);
        }
    }

    #[test]
    fn deeper_chains_cost_more_end_to_end() {
        let rec = Recorder::new(DEFAULT_RING_CAPACITY);
        let shallow = skybridge_chain(1, 2, &rec);
        rec.clear();
        let deep = skybridge_chain(4, 2, &rec);
        let s = shallow.requests[1].1;
        let d = deep.requests[1].1;
        assert!(
            d > s + 3 * HOP_WORK,
            "4 hops ({d} cycles) must out-cost 1 hop ({s}) by at least the extra work"
        );
    }

    #[test]
    fn trap_chain_sums_hops_exactly() {
        let rec = Recorder::new(DEFAULT_RING_CAPACITY);
        let run = chain_for(&Backend::Trap(Personality::sel4()), 3, 3, &rec);
        let forest = assemble(&rec);
        for &(corr, end_to_end) in &run.requests {
            let tr = forest.request(corr).expect("request assembled");
            assert_eq!(tr.roots.len(), 1);
            assert_eq!(tr.roots[0].children.len(), 3, "one child Call span per hop");
            assert_eq!(tr.critical_path_cycles(), end_to_end);
        }
    }

    #[test]
    fn mpk_chain_carries_wrpkru_spans() {
        let rec = Recorder::new(DEFAULT_RING_CAPACITY);
        let run = chain_for(&Backend::Mpk, 3, 3, &rec);
        assert_eq!(run.label, "mpk");
        let forest = assemble(&rec);
        for &(corr, end_to_end) in &run.requests {
            let tr = forest.request(corr).expect("request assembled");
            assert_eq!(tr.roots.len(), 1);
            assert_eq!(tr.roots[0].children.len(), 3, "one child Call span per hop");
            assert_eq!(tr.critical_path_cycles(), end_to_end);
            // Each hop's interior carries the two crossing flips.
            for hop in &tr.roots[0].children {
                let flips = hop
                    .children
                    .iter()
                    .filter(|s| s.kind == SpanKind::Wrpkru)
                    .count();
                assert_eq!(flips, 2, "two WRPKRU spans per crossing");
            }
        }
    }
}
