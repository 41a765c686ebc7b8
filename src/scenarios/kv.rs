//! The Figure 1 pipeline: client → encryption server → KV-store server.
//!
//! "For the insert operations, requests from the client reach the
//! encryption server to encrypt the messages before getting to the KV
//! store server to save the messages. For the query operations, the
//! encryption server decrypts the query results from the KV store server
//! and then returns them to the client." (§2.1.2)
//!
//! Five configurations reproduce Table 1 and Figures 2/8:
//!
//! * **Baseline** — all three components in one address space, function
//!   calls;
//! * **Delay** — one address space, plus a 493-cycle delay per component
//!   crossing (the direct cost of one IPC without Meltdown mitigations);
//! * **Ipc** — three processes on one core, kernel IPC;
//! * **IpcCrossCore** — three processes on three cores (IPIs);
//! * **SkyBridge** — three processes, `direct_server_call`.

use std::{cell::RefCell, collections::HashMap, rc::Rc};

use sb_mem::Gva;
use sb_microkernel::{layout, Kernel, KernelConfig, Personality, ThreadId};
use sb_sim::{Cycles, Pmu};
use sb_ycsb::kv::{KvMixSpec, KvOp};
use skybridge::{ServerId, SkyBridge};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvMode {
    /// One address space, plain function calls.
    Baseline,
    /// One address space, 493-cycle delays at component boundaries.
    Delay,
    /// Three processes, same-core kernel IPC.
    Ipc,
    /// Three processes on three cores (cross-core IPC with IPIs).
    IpcCrossCore,
    /// Three processes, SkyBridge direct server calls.
    SkyBridge,
}

/// The one-way direct IPC cost the Delay configuration compensates
/// (§2.1.1: 493 cycles).
const DELAY_CYCLES: Cycles = 493;

/// Hash buckets of the KV store's index (8 bytes each, in simulated
/// memory).
const BUCKETS: u64 = 4096;

/// Base of the KV store's slot region.
const SLOT_BASE: Gva = Gva(0x5100_0000);

/// Base of the in-process communication buffer (Baseline/Delay).
const COMM_BASE: Gva = Gva(0x5200_0000);

/// Per-process "libc" code region: the shared-library text every
/// component drags through the i-cache. One copy per *process* — which is
/// exactly why splitting the pipeline into three processes inflates the
/// instruction footprint (each process maps its own copy), while the
/// single-space Baseline shares one.
const LIBC_BASE: Gva = Gva(0x4100_0000);

/// Bytes of libc text each component invocation walks.
const LIBC_LEN: usize = 14 * 1024;

/// Per-process scratch region (stacks, temporaries): each process touches
/// one line in each of [`SCRATCH_PAGES`] pages per invocation. Three
/// processes triple the page working set, which is what thrashes the
/// 64-entry d-TLB in the IPC configuration (Table 1's 17 → 7832 jump).
const SCRATCH_BASE: Gva = Gva(0x5300_0000);

/// Scratch pages per process.
const SCRATCH_PAGES: u64 = 14;

/// Fixed per-component software work (hashing, parsing, copying).
const COMPONENT_CPU: Cycles = 180;

/// Rust-side KV index (the slot directory; the *data* lives in simulated
/// memory).
#[derive(Debug, Default)]
struct KvState {
    index: HashMap<Vec<u8>, (u64, usize)>,
    next_slot: u64,
}

/// Result of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct KvRunStats {
    /// Operations executed.
    pub ops: u64,
    /// Total client-observed cycles.
    pub total_cycles: Cycles,
    /// Average cycles per operation (Figure 2/8's y-axis).
    pub avg_cycles: Cycles,
    /// Machine-wide PMU delta (Table 1's rows).
    pub pmu: Pmu,
}

/// The wired-up pipeline.
pub struct KvPipeline {
    /// The kernel (exposed for PMU access in benches).
    pub k: Kernel,
    sb: Option<SkyBridge>,
    mode: KvMode,
    /// Key/value length of this pipeline instance.
    pub len: usize,
    client: ThreadId,
    enc_tid: ThreadId,
    kv_tid: ThreadId,
    enc_cap: usize,
    kv_cap: usize,
    sb_enc: ServerId,
    kv_state: Rc<RefCell<KvState>>,
    mix: KvMixSpec,
}

fn code_image(seed: u64, len: usize) -> Vec<u8> {
    sb_rewriter::corpus::generate(seed, len, 0)
}

impl KvPipeline {
    /// Builds the pipeline for `mode` at key/value length `len`, with
    /// heap capacity for `capacity_ops` insertions, under the paper's
    /// seL4 cost personality (SkyBridge boots it with the Rootkernel).
    pub fn new(mode: KvMode, len: usize, capacity_ops: usize) -> Self {
        let personality = Personality::sel4();
        let config = match mode {
            KvMode::SkyBridge => KernelConfig::with_rootkernel(personality),
            _ => KernelConfig::native(personality),
        };
        let mut k = Kernel::boot(config);
        let single_space = matches!(mode, KvMode::Baseline | KvMode::Delay);
        let cross = mode == KvMode::IpcCrossCore;

        let client_pid = k.create_process(&code_image(21, 4096));
        let (enc_pid, kv_pid) = if single_space {
            (client_pid, client_pid)
        } else {
            (
                k.create_process(&code_image(22, 2048)),
                k.create_process(&code_image(23, 4096)),
            )
        };
        let client = k.create_thread(client_pid, 0);
        let (enc_tid, kv_tid) = if single_space {
            (client, client)
        } else {
            (
                k.create_thread(enc_pid, if cross { 1 } else { 0 }),
                k.create_thread(kv_pid, if cross { 2 } else { 0 }),
            )
        };

        // KV store memory: slot region sized to the run, bucket array in
        // the default heap.
        let slot_bytes = (capacity_ops + 8) * (2 * len + 16);
        let slot_pages = slot_bytes.div_ceil(4096) + 1;
        k.map_heap(kv_pid, SLOT_BASE, slot_pages);
        if single_space {
            k.map_heap(client_pid, COMM_BASE, 2);
        }
        // libc text is a *shared library*: one set of physical frames
        // mapped into every process (so the physically-indexed caches hold
        // a single copy), while scratch working sets (stacks, heaps) are
        // private per process — tripling the d-TLB page footprint when the
        // pipeline splits into three processes.
        let mut pids = vec![client_pid];
        if !single_space {
            pids.push(enc_pid);
            pids.push(kv_pid);
        }
        let libc_pages = LIBC_LEN.div_ceil(4096);
        let first_libc = {
            let asp = k.processes[pids[0]].asp;
            asp.alloc_and_map(
                &mut k.mem,
                LIBC_BASE,
                libc_pages,
                sb_mem::PteFlags::USER_CODE,
            )
        };
        for &pid in &pids[1..] {
            let asp = k.processes[pid].asp;
            for i in 0..libc_pages {
                asp.map(
                    &mut k.mem,
                    LIBC_BASE.add(i as u64 * 4096),
                    sb_mem::Gpa(first_libc.0 + i as u64 * 4096),
                    sb_mem::PteFlags::USER_CODE,
                );
            }
        }
        for &pid in &pids {
            let asp = k.processes[pid].asp;
            asp.alloc_and_map(
                &mut k.mem,
                SCRATCH_BASE,
                SCRATCH_PAGES as usize,
                sb_mem::PteFlags::USER_DATA,
            );
        }

        let kv_state = Rc::new(RefCell::new(KvState::default()));
        let mut sb = None;
        let (mut enc_cap, mut kv_cap) = (0, 0);
        let mut sb_enc = 0;
        match mode {
            KvMode::Baseline | KvMode::Delay => {}
            KvMode::Ipc | KvMode::IpcCrossCore => {
                let (enc_ep, _) = k.create_endpoint(enc_pid);
                let (kv_ep, _) = k.create_endpoint(kv_pid);
                enc_cap = k.grant_send(client_pid, enc_ep);
                kv_cap = k.grant_send(enc_pid, kv_ep);
                k.server_recv(enc_tid, enc_ep);
                k.server_recv(kv_tid, kv_ep);
            }
            KvMode::SkyBridge => {
                let mut bridge = SkyBridge::new();
                let state = kv_state.clone();
                let kv_id = bridge
                    .register_server(
                        &mut k,
                        kv_tid,
                        8,
                        2048,
                        Box::new(move |_sb, k, ctx, req| {
                            Ok(kv_server_op(k, ctx.caller, &mut state.borrow_mut(), req).into())
                        }),
                    )
                    .expect("kv registration");
                sb_enc = bridge
                    .register_server(
                        &mut k,
                        enc_tid,
                        8,
                        1536,
                        Box::new(move |sb, k, ctx, req| {
                            let enc = enc_transform(k, ctx.caller, req, Leg::Request);
                            let (reply, _) = sb.direct_server_call(k, ctx.caller, kv_id, &enc)?;
                            Ok(enc_transform(k, ctx.caller, &reply, Leg::Reply).into())
                        }),
                    )
                    .expect("enc registration");
                bridge
                    .register_client(&mut k, client, sb_enc)
                    .expect("bind enc");
                // The client's EPTP list carries the dependency (§4.2).
                bridge
                    .register_client(&mut k, client, kv_id)
                    .expect("bind kv");
                sb = Some(bridge);
            }
        }
        k.run_thread(client);
        KvPipeline {
            k,
            sb,
            mode,
            len,
            client,
            enc_tid,
            kv_tid,
            enc_cap,
            kv_cap,
            sb_enc,
            kv_state,
            mix: KvMixSpec::new(len, 0x5eed),
        }
    }

    /// Runs `n` operations, measuring client-observed latency and the
    /// machine-wide PMU delta.
    pub fn run_ops(&mut self, n: usize) -> KvRunStats {
        let core = self.k.core_of(self.client);
        let t0 = self.k.machine.cpu(core).tsc;
        let pmu0 = self.k.machine.pmu_total();
        for _ in 0..n {
            let op = self.mix.next_op();
            self.one_op(&op);
        }
        let total = self.k.machine.cpu(core).tsc - t0;
        let pmu = self.k.machine.pmu_total().delta(&pmu0);
        KvRunStats {
            ops: n as u64,
            total_cycles: total,
            avg_cycles: total / n as u64,
            pmu,
        }
    }

    /// Encodes an operation as the wire request.
    fn encode_req(op: &KvOp) -> Vec<u8> {
        match op {
            KvOp::Insert { key, value } => {
                let mut r = vec![1u8];
                r.extend_from_slice(&(key.len() as u16).to_le_bytes());
                r.extend_from_slice(key);
                r.extend_from_slice(value);
                r
            }
            KvOp::Query { key } => {
                let mut r = vec![2u8];
                r.extend_from_slice(&(key.len() as u16).to_le_bytes());
                r.extend_from_slice(key);
                r
            }
        }
    }

    /// Runs one operation and returns the reply the client sees: the
    /// decrypted value of a found query.
    fn one_op(&mut self, op: &KvOp) -> Vec<u8> {
        let req = Self::encode_req(op);
        // Client-side work: compose the request in its buffer.
        let client_buf = match self.mode {
            KvMode::Baseline | KvMode::Delay => COMM_BASE,
            _ => self.k.threads[self.client].msg_buf,
        };
        component_work(&mut self.k, self.client, layout::CODE_BASE, 4096);
        self.k.compute(self.client, req.len() as Cycles / 2);
        self.k.user_write(self.client, client_buf, &req).unwrap();
        match self.mode {
            KvMode::Baseline | KvMode::Delay => {
                let delay = if self.mode == KvMode::Delay {
                    DELAY_CYCLES
                } else {
                    0
                };
                // enc (function call).
                self.k.compute(self.client, delay);
                let enc = enc_transform(&mut self.k, self.client, &req, Leg::Request);
                self.k.user_write(self.client, client_buf, &enc).unwrap();
                // kv (function call).
                self.k.compute(self.client, delay);
                let mut state = self.kv_state.borrow_mut();
                let reply = kv_server_op(&mut self.k, self.client, &mut state, &enc);
                drop(state);
                self.k.compute(self.client, delay);
                // decrypt on the way back.
                let out = enc_transform(&mut self.k, self.client, &reply, Leg::Reply);
                self.k.compute(self.client, delay);
                self.k.user_write(self.client, client_buf, &out).unwrap();
                out
            }
            KvMode::Ipc | KvMode::IpcCrossCore => {
                // client → enc.
                self.k
                    .ipc_call(self.client, self.enc_cap, req.len())
                    .expect("client→enc");
                // enc: transform and forward.
                let enc_buf = self.k.threads[self.enc_tid].msg_buf;
                let mut buf = vec![0u8; req.len()];
                self.k.user_read(self.enc_tid, enc_buf, &mut buf).unwrap();
                let enc = enc_transform(&mut self.k, self.enc_tid, &buf, Leg::Request);
                self.k.user_write(self.enc_tid, enc_buf, &enc).unwrap();
                self.k
                    .ipc_call(self.enc_tid, self.kv_cap, enc.len())
                    .expect("enc→kv");
                // kv: serve.
                let kv_buf = self.k.threads[self.kv_tid].msg_buf;
                let mut kreq = vec![0u8; enc.len()];
                self.k.user_read(self.kv_tid, kv_buf, &mut kreq).unwrap();
                let mut state = self.kv_state.borrow_mut();
                let reply = kv_server_op(&mut self.k, self.kv_tid, &mut state, &kreq);
                drop(state);
                self.k.user_write(self.kv_tid, kv_buf, &reply).unwrap();
                self.k
                    .ipc_reply(self.kv_tid, self.enc_tid, reply.len())
                    .expect("kv reply");
                // enc: decrypt the reply, return to the client.
                let mut rbuf = vec![0u8; reply.len()];
                self.k.user_read(self.enc_tid, enc_buf, &mut rbuf).unwrap();
                let out = enc_transform(&mut self.k, self.enc_tid, &rbuf, Leg::Reply);
                self.k.user_write(self.enc_tid, enc_buf, &out).unwrap();
                self.k
                    .ipc_reply(self.enc_tid, self.client, out.len())
                    .expect("enc reply");
                out
            }
            KvMode::SkyBridge => {
                let sb = self.sb.as_mut().expect("SkyBridge mode");
                sb.direct_server_call(&mut self.k, self.client, self.sb_enc, &req)
                    .expect("direct call")
                    .0
            }
        }
    }
}

/// The software footprint every component drags through the machine per
/// invocation: its libc text, a slice of its own code, one line in each
/// scratch page, and fixed compute.
fn component_work(k: &mut Kernel, tid: ThreadId, code_slice: Gva, slice_len: usize) {
    k.user_exec(tid, LIBC_BASE, LIBC_LEN).unwrap();
    k.user_exec(tid, code_slice, slice_len).unwrap();
    for page in 0..SCRATCH_PAGES {
        let mut b = [0u8; 8];
        k.user_read(tid, SCRATCH_BASE.add(page * 4096), &mut b)
            .unwrap();
    }
    k.compute(tid, COMPONENT_CPU);
}

/// Which way a message crosses the encryption server.
enum Leg {
    /// Client → KV store: a framed request (tag + key length, 3 bytes).
    Request,
    /// KV store → client: a raw payload.
    Reply,
}

/// The encryption server's work: fetch its code, XOR-transform the
/// payload (a self-inverse stream-cipher stand-in), charging per-byte
/// compute. A request's 3-byte framing is left intact so the KV server
/// can parse it.
fn enc_transform(k: &mut Kernel, tid: ThreadId, data: &[u8], leg: Leg) -> Vec<u8> {
    component_work(k, tid, layout::CODE_BASE, 2048);
    // Stream-cipher cost: ~1.5 cycles per byte plus setup.
    k.compute(tid, data.len() as Cycles * 3 / 2 + 40);
    let skip = match leg {
        Leg::Request => 3,
        Leg::Reply => 0,
    };
    data.iter()
        .enumerate()
        .map(|(i, b)| if i < skip { *b } else { b ^ 0x5a })
        .collect()
}

/// The KV server's work: probe the bucket array, then read or write the
/// slot bytes — all through simulated memory in the server's space.
fn kv_server_op(k: &mut Kernel, tid: ThreadId, state: &mut KvState, req: &[u8]) -> Vec<u8> {
    component_work(k, tid, layout::CODE_BASE, 4096);
    // Hashing + record handling: ~1 cycle per payload byte.
    k.compute(tid, req.len() as Cycles);
    let tag = req[0];
    let klen = u16::from_le_bytes(req[1..3].try_into().unwrap()) as usize;
    let key = &req[3..3 + klen];
    // Bucket probe: one real read of the index line.
    let bucket = sb_ycsb::zipf::fnv_hash(
        key.iter()
            .fold(0u64, |a, &b| a.wrapping_mul(131).wrapping_add(b as u64)),
    ) % BUCKETS;
    let mut probe = [0u8; 8];
    k.user_read(tid, layout::HEAP_BASE.add(bucket * 8), &mut probe)
        .unwrap();
    match tag {
        1 => {
            // Insert: store key+value at the next slot.
            let payload = &req[3..];
            let slot = state.next_slot;
            state.next_slot += payload.len() as u64 + 16;
            state
                .index
                .insert(key.to_vec(), (slot, payload.len() - klen));
            k.user_write(tid, SLOT_BASE.add(slot), payload).unwrap();
            // Update the bucket head.
            k.user_write(tid, layout::HEAP_BASE.add(bucket * 8), &slot.to_le_bytes())
                .unwrap();
            vec![1]
        }
        _ => {
            // Query: read the stored value back.
            match state.index.get(key) {
                Some(&(slot, vlen)) => {
                    let mut out = vec![0u8; vlen];
                    k.user_read(tid, SLOT_BASE.add(slot + klen as u64), &mut out)
                        .unwrap();
                    out
                }
                None => vec![0],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: KvMode, len: usize, n: usize) -> KvRunStats {
        let mut p = KvPipeline::new(mode, len, n + 64);
        p.run_ops(64); // Warmup.
        p.run_ops(n)
    }

    #[test]
    fn baseline_is_fastest_and_delay_adds_4x493() {
        let base = run(KvMode::Baseline, 16, 256);
        let delay = run(KvMode::Delay, 16, 256);
        assert!(delay.avg_cycles > base.avg_cycles);
        let added = delay.avg_cycles - base.avg_cycles;
        assert!(
            (1800..2200).contains(&added),
            "Delay should add ~4x493 = 1972 cycles, added {added}"
        );
    }

    #[test]
    fn ipc_is_slower_than_delay_by_indirect_cost() {
        // Figure 2's point: the *direct* cost is compensated in Delay, so
        // the IPC-vs-Delay gap is pure indirect (pollution) cost.
        let delay = run(KvMode::Delay, 16, 256);
        let ipc = run(KvMode::Ipc, 16, 256);
        assert!(
            ipc.avg_cycles > delay.avg_cycles + 200,
            "IPC {} must exceed Delay {} by the indirect cost",
            ipc.avg_cycles,
            delay.avg_cycles
        );
    }

    #[test]
    fn cross_core_is_much_slower() {
        let ipc = run(KvMode::Ipc, 16, 128);
        let cross = run(KvMode::IpcCrossCore, 16, 128);
        assert!(cross.avg_cycles > ipc.avg_cycles + 2 * 1913);
    }

    #[test]
    fn skybridge_beats_ipc_and_approaches_baseline() {
        let base = run(KvMode::Baseline, 16, 256);
        let sb = run(KvMode::SkyBridge, 16, 256);
        let ipc = run(KvMode::Ipc, 16, 256);
        assert!(sb.avg_cycles < ipc.avg_cycles, "SkyBridge must beat IPC");
        assert!(sb.avg_cycles > base.avg_cycles, "but not beat Baseline");
    }

    #[test]
    fn ipc_pollutes_tlb_and_caches_far_more_than_delay() {
        // Table 1's shape.
        let delay = run(KvMode::Delay, 64, 512);
        let ipc = run(KvMode::Ipc, 64, 512);
        assert!(ipc.pmu.dtlb_misses > 4 * delay.pmu.dtlb_misses.max(1));
        assert!(ipc.pmu.l1i_misses > 4 * delay.pmu.l1i_misses.max(1));
    }

    #[test]
    fn query_results_roundtrip_correctly() {
        // Functional fidelity: the value the client reads back equals the
        // value it inserted (through encrypt→store→fetch→decrypt), on
        // every mode — also when its first byte, encrypted, looks like a
        // request tag (0x5b ^ 0x5a == 1, 0x58 ^ 0x5a == 2).
        use KvMode::{Baseline, Delay, Ipc, IpcCrossCore};
        for mode in [Baseline, Delay, Ipc, IpcCrossCore, KvMode::SkyBridge] {
            let mut p = KvPipeline::new(mode, 16, 128);
            p.run_ops(100);
            assert!(p.kv_state.borrow().index.len() > 10);
            for first in [0x5b, 0x58, 0x00] {
                let (key, mut value) = (vec![first; 16], vec![0x33; 16]);
                value[0] = first;
                let insert = KvOp::Insert {
                    key: key.clone(),
                    value: value.clone(),
                };
                p.one_op(&insert);
                assert_eq!(p.one_op(&KvOp::Query { key }), value, "{mode:?}");
            }
        }
    }
}
