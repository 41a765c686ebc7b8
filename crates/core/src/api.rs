//! The SkyBridge user-level API: registration and `direct_server_call`.

use rand::{rngs::SmallRng, RngCore, SeedableRng};
use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
use sb_mem::{
    walk::{self, Access},
    Gva, Hpa, PteFlags, PAGE_SIZE,
};
use sb_microkernel::{
    ipc::{Breakdown, Component},
    layout, Kernel, ProcessId, ThreadId,
};
use sb_observe::{Recorder, SpanKind};
use sb_rewriter::rewrite::rewrite_code;
use sb_rootkernel::EptpList;
use sb_sim::Cycles;

use crate::{
    error::SbError,
    registry::{Binding, ServerId, ServerInfo, Violation},
    trampoline,
};

/// Maximum bytes carried in registers (the x86-64 calling convention's
/// argument registers).
pub const REGISTER_ARGS_MAX: usize = 64;

/// A server handler: runs *in the server's address space on the client's
/// thread* (thread-migration model), reading the request and producing a
/// reply. It receives the kernel and SkyBridge handles so servers can
/// perform nested `direct_server_call`s (the KV-store pipeline of Fig. 1).
pub type Handler =
    Box<dyn FnMut(&mut SkyBridge, &mut Kernel, HandlerCtx, &[u8]) -> Result<HandlerReply, SbError>>;

/// What a handler sends back.
///
/// The echo contract every serving personality implements needs no bytes
/// at all: the reply *is* the request, already sitting in the shared
/// buffer, so the return path serves it in place without materialising a
/// `Vec`. Handlers with a real payload return [`HandlerReply::Bytes`]
/// (a `Vec<u8>` converts via `.into()`).
#[derive(Debug)]
pub enum HandlerReply {
    /// Reply with the request's own bytes, served in place from the
    /// shared buffer — the zero-copy echo path.
    Echo,
    /// Explicit reply bytes, written into the caller-visible half of the
    /// shared buffer (or returned in registers when small).
    Bytes(Vec<u8>),
}

impl From<Vec<u8>> for HandlerReply {
    fn from(v: Vec<u8>) -> Self {
        HandlerReply::Bytes(v)
    }
}

/// What a handler knows about the call it is serving.
#[derive(Debug, Clone, Copy)]
pub struct HandlerCtx {
    /// The server being called.
    pub server: ServerId,
    /// The serving process (whose address space is active).
    pub server_process: ProcessId,
    /// The calling thread (migrated into the server space).
    pub caller: ThreadId,
    /// The shared buffer of this connection.
    pub shared_buf: Gva,
    /// The connection index.
    pub connection: usize,
}

/// An open batched crossing: the migrated thread is parked in the
/// server's EPT between [`SkyBridge::batch_begin`] and
/// [`SkyBridge::batch_end`], serving ring frames one after another
/// without re-paying the trampoline + VMFUNC boundary per frame.
#[derive(Debug)]
pub struct BatchSession {
    crossing: Crossing,
    open: bool,
}

impl BatchSession {
    /// Whether the session still holds the server EPT (an error path
    /// forces the return crossing early and closes it).
    pub fn is_open(&self) -> bool {
        self.open
    }
}

/// One crossing of a binding, as the entry trampoline opened it: what
/// the server-side steps and the return need to know.
#[derive(Debug)]
struct Crossing {
    server: ServerId,
    server_pid: ProcessId,
    client_tid: ThreadId,
    client_pid: ProcessId,
    core: usize,
    connection: usize,
    server_key: u64,
    shared_buf: Gva,
    ept_root: Hpa,
    /// The EPT and identity active at entry. A nested call (a server
    /// calling a further server on the migrated thread) returns to
    /// these, not unconditionally to the client's own EPT.
    return_root: Hpa,
    return_identity: ProcessId,
    /// The per-call client key (§4.4): generated fresh, echoed by the
    /// server, rechecked on return.
    client_key: u64,
    /// The clock when the entry trampoline started.
    entered: Cycles,
}

/// What a handler run left for the return.
struct Served {
    /// `None` for an echo: the reply is the request, in place.
    reply: Option<Vec<u8>>,
    reply_len: usize,
    /// Handler cycles, an injected hang included.
    elapsed: Cycles,
    /// The handler overran the §7 budget.
    timed_out: bool,
    /// The clock when the reply placement started.
    reply_at: Cycles,
}

/// The SkyBridge facility (the state the Subkernel integration keeps).
pub struct SkyBridge {
    servers: Vec<ServerInfo>,
    handlers: Vec<Option<Handler>>,
    /// `bindings[client][server]`, both grown on demand: the call path
    /// reaches a binding by index, never by hash.
    bindings: Vec<Vec<Option<Binding>>>,
    /// `registered[pid]`: whether `register_process` has run for `pid`.
    registered: Vec<bool>,
    /// Recorded security violations.
    pub violations: Vec<Violation>,
    /// Optional call timeout (§7 DoS defense).
    pub timeout: Option<Cycles>,
    /// The global server-function-list frame (mapped read-only into every
    /// registered process at [`layout::SERVER_LIST_BASE`]).
    fn_list_gpa: Option<u64>,
    rng: SmallRng,
    /// Total direct server calls completed.
    pub call_count: u64,
    /// The chaos fault plane. Defaults to an all-zero mix, i.e. no
    /// injection; [`SkyBridge::attach_faults`] swaps in a live one.
    faults: FaultHandle,
    /// Trace recorder. Defaults to off (a flag check per emit site);
    /// [`SkyBridge::set_recorder`] swaps in a live one. Spans land on
    /// recorder lane = the calling thread's core.
    recorder: Recorder,
    /// The request-scoped trace id every emitted span carries — the
    /// wire `corr` of the call currently in flight. The transport stamps
    /// it before issuing the call; nested `direct_server_call`s made by
    /// handlers on the migrated thread deliberately inherit it, so a
    /// whole client→db→fs chain assembles under one id.
    trace_corr: u64,
}

impl SkyBridge {
    /// Creates the facility (deterministic key RNG for reproducibility).
    pub fn new() -> Self {
        SkyBridge {
            servers: Vec::new(),
            handlers: Vec::new(),
            bindings: Vec::new(),
            registered: Vec::new(),
            violations: Vec::new(),
            timeout: None,
            fn_list_gpa: None,
            rng: SmallRng::seed_from_u64(0x5b_1d9e),
            call_count: 0,
            faults: FaultHandle::new(0, FaultMix::none()),
            recorder: Recorder::off(),
            trace_corr: 0,
        }
    }

    /// Attaches a trace recorder; phase spans (trampoline / switch /
    /// handler / marshal) are emitted on lane = calling core.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Stamps the trace id (wire `corr`) the next call's spans carry.
    /// Call sites that drive `direct_server_call` directly (tests,
    /// examples) may skip this and keep the previous id; the transports
    /// stamp it per request. Nested calls inherit the stamped id — the
    /// root of the chain owns the whole trace.
    pub fn set_trace_corr(&mut self, corr: u64) {
        self.trace_corr = corr;
    }

    /// Attaches a live fault plane (chaos runs). Without this call the
    /// facility keeps its default all-zero mix and never injects.
    pub fn attach_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    /// Kills `server` (chaos/test control, and the internal effect of an
    /// injected handler panic): its thread dies and every subsequent call
    /// refuses with [`SbError::ServerDead`] until a revive.
    pub fn kill_server(&mut self, k: &mut Kernel, server: ServerId) {
        self.servers[server].dead = true;
        k.kill_thread(self.servers[server].thread);
    }

    /// Revives a crashed server — the supervisor restart half of the
    /// crash-recovery path. The outstanding handler-panic instance is
    /// marked recovered; clients still need to rebind.
    pub fn revive_server(&mut self, k: &mut Kernel, server: ServerId) {
        if self.servers[server].dead {
            self.servers[server].dead = false;
            k.revive_thread(self.servers[server].thread);
            self.faults.recovered(FaultPoint::HandlerPanic);
        }
    }

    /// Whether `server` is currently dead (crashed, not yet revived).
    pub fn server_dead(&self, server: ServerId) -> bool {
        self.servers.get(server).is_some_and(|s| s.dead)
    }

    /// Dissolves the `(client, server)` binding, returning its connection
    /// slot to the server's free list. The crash-recovery sequence is
    /// unbind → revive → `register_client`. Returns whether a binding
    /// existed.
    pub fn unbind_client(&mut self, client: ProcessId, server: ServerId) -> bool {
        match self.binding_slot(client, server).and_then(Option::take) {
            Some(b) => {
                self.servers[server].free_connections.push(b.connection);
                true
            }
            None => false,
        }
    }

    /// Registers `pid` with SkyBridge: scans and rewrites its binary
    /// (§5.1), maps the trampoline page, and creates its own EPT with a
    /// pinned EPTP slot 0.
    ///
    /// Idempotent. This is the "~200 LoC of Subkernel integration" work.
    pub fn register_process(&mut self, k: &mut Kernel, pid: ProcessId) -> Result<(), SbError> {
        if self.is_registered(pid) {
            return Ok(());
        }
        self.rewrite_process(k, pid)?;
        // Map the trampoline page (X-only) at the shared address.
        let image = trampoline::page_image();
        Self::map_code_region(k, pid, layout::TRAMPOLINE_BASE, &image);
        // Map the global server function list (read-only; the Subkernel
        // writes entries through the physical frame at registration).
        let frame = *self
            .fn_list_gpa
            .get_or_insert_with(|| k.mem.alloc_frame().0);
        k.processes[pid].asp.map(
            &mut k.mem,
            layout::SERVER_LIST_BASE,
            sb_mem::Gpa(frame),
            PteFlags::USER_RO,
        );
        // The process's own EPT, pinned at slot 0 of its EPTP list.
        let cr3 = k.processes[pid].cr3();
        let own = if let Some(rk) = k.rootkernel.as_mut() {
            let core = k.threads[k.processes[pid].threads[0]].core;
            rk.process_ept(&mut k.machine, core, &mut k.mem, cr3)
        } else {
            Hpa(0)
        };
        let mut list = EptpList::new(1);
        list.pin(0, own);
        k.processes[pid].own_ept = Some(own);
        k.processes[pid].eptp_list = Some(list);
        *slot(&mut self.registered, pid) = true;
        self.reinstall_if_current(k, pid);
        Ok(())
    }

    /// Scans the process image for inadvertent `VMFUNC`s and patches them
    /// (W^X flip: writable during the patch, executable after).
    fn rewrite_process(&mut self, k: &mut Kernel, pid: ProcessId) -> Result<(), SbError> {
        let len = k.processes[pid].code_len;
        if len == 0 {
            return Ok(());
        }
        let asp = k.processes[pid].asp;
        let mut code = vec![0u8; len];
        read_setup(k, pid, layout::CODE_BASE, &mut code);
        let out = rewrite_code(&code, layout::CODE_BASE.0, layout::REWRITE_PAGE.0)?;
        // Write the patched image back (W^X: flip writable, write, flip
        // back).
        let pages = len.div_ceil(PAGE_SIZE as usize);
        for i in 0..pages {
            let gva = layout::CODE_BASE.add(i as u64 * PAGE_SIZE);
            asp.protect(&mut k.mem, gva, PteFlags::USER_DATA);
        }
        write_setup(k, pid, layout::CODE_BASE, &out.code);
        for i in 0..pages {
            let gva = layout::CODE_BASE.add(i as u64 * PAGE_SIZE);
            asp.protect(&mut k.mem, gva, PteFlags::USER_CODE);
        }
        if !out.rewrite_page.is_empty() {
            Self::map_code_region(k, pid, layout::REWRITE_PAGE, &out.rewrite_page);
        }
        Ok(())
    }

    /// Maps `bytes` as a W^X code region at `at` in `pid`.
    pub(crate) fn map_code_region(k: &mut Kernel, pid: ProcessId, at: Gva, bytes: &[u8]) {
        let asp = k.processes[pid].asp;
        let pages = bytes.len().div_ceil(PAGE_SIZE as usize).max(1);
        asp.alloc_and_map(&mut k.mem, at, pages, PteFlags::USER_DATA);
        write_setup(k, pid, at, bytes);
        for i in 0..pages {
            asp.protect(
                &mut k.mem,
                at.add(i as u64 * PAGE_SIZE),
                PteFlags::USER_CODE,
            );
        }
    }

    /// `register_server` (Fig. 4): registers `handler` for the process of
    /// `server_tid`, supporting `connections` simultaneous clients.
    /// Returns the server ID clients bind to. A count or a server that
    /// would leave its window of the layout is refused before anything
    /// is mapped or recorded.
    pub fn register_server(
        &mut self,
        k: &mut Kernel,
        server_tid: ThreadId,
        connections: usize,
        handler_len: usize,
        handler: Handler,
    ) -> Result<ServerId, SbError> {
        let pid = k.threads[server_tid].process;
        // Stacks and key tables live in the *server's own* address space,
        // so they are addressed per process (by the ordinal of this server
        // within the process), not by the global server id — a process may
        // host several registered services.
        let ordinal = self.servers.iter().filter(|s| s.process == pid).count();
        if connections > layout::SB_CONNECTIONS {
            return Err(SbError::TooManyConnections);
        }
        if self.servers.len() >= layout::SB_SERVERS || ordinal >= layout::SB_SERVERS_PER_PROCESS {
            return Err(SbError::TooManyServers);
        }
        self.register_process(k, pid)?;
        let id = self.servers.len();
        let asp = k.processes[pid].asp;
        // Per-connection stacks (the count bounds concurrency, §4.4).
        let stack_pages = layout::SB_STACK_SIZE / PAGE_SIZE as usize;
        for c in 0..connections {
            let at = layout::SB_STACK_BASE
                .add(((ordinal * layout::SB_CONNECTIONS + c) * layout::SB_STACK_SIZE) as u64);
            asp.alloc_and_map(&mut k.mem, at, stack_pages, PteFlags::USER_DATA);
        }
        // Calling-key table page.
        let key_table = layout::KEY_TABLE_BASE.add(ordinal as u64 * PAGE_SIZE);
        asp.alloc_and_map(&mut k.mem, key_table, 1, PteFlags::USER_DATA);
        // The registered handler function lives in the server image; we
        // record its address (the function list maps it into clients).
        let handler_fn = layout::CODE_BASE;
        self.servers.push(ServerInfo {
            id,
            process: pid,
            thread: server_tid,
            handler_fn,
            handler_len: handler_len.max(64),
            max_connections: connections,
            next_connection: 0,
            free_connections: Vec::new(),
            key_table,
            dead: false,
            echo_flip: 0,
        });
        self.handlers.push(Some(handler));
        Ok(id)
    }

    /// `register_client_to_server` (Fig. 4): binds the process of
    /// `client_tid` to `server`, creating the binding EPT (CR3 remap) and
    /// the connection resources, and installing the EPT in the client's
    /// EPTP list.
    pub fn register_client(
        &mut self,
        k: &mut Kernel,
        client_tid: ThreadId,
        server: ServerId,
    ) -> Result<(), SbError> {
        let client_pid = k.threads[client_tid].process;
        if server >= self.servers.len() {
            return Err(SbError::NoSuchServer);
        }
        self.register_process(k, client_pid)?;
        if self.binding(client_pid, server).is_some() {
            // Idempotent rebind: if a connection-slot exhaustion was
            // outstanding, the caller just observed it resolve.
            self.faults.recovered(FaultPoint::BufferExhaust);
            return Ok(());
        }
        // Injected slot exhaustion (§4.4 resource bound): a rogue sibling
        // grabbed the connection first. The facility refuses cleanly; the
        // caller's retry finds the slot reclaimed.
        if self.faults.fire(FaultPoint::BufferExhaust) {
            self.faults.detected(FaultPoint::BufferExhaust);
            return Err(SbError::NoFreeConnection);
        }
        let (server_pid, key_table) = {
            let s = &self.servers[server];
            (s.process, s.key_table)
        };
        // Reuse a slot freed by `unbind_client` before growing; crash →
        // rebind cycles must not exhaust the connection space.
        let next_conn = match self.servers[server].free_connections.pop() {
            Some(c) => c,
            None => {
                let s = &mut self.servers[server];
                if s.next_connection >= s.max_connections {
                    return Err(SbError::NoFreeConnection);
                }
                s.next_connection += 1;
                s.next_connection - 1
            }
        };

        // The binding EPT: shallow base-EPT copy remapping the client's
        // CR3 GPA to the server's page-table root (§4.3).
        let client_cr3 = k.processes[client_pid].cr3();
        let server_cr3 = k.processes[server_pid].cr3();
        let ept_root = if let Some(rk) = k.rootkernel.as_mut() {
            let core = k.threads[client_tid].core;
            rk.bind(&mut k.machine, core, &mut k.mem, client_cr3, server_cr3)
        } else {
            Hpa(0)
        };

        // Shared buffer for this connection: same frames mapped at the
        // same GVA in both spaces — and in every server already bound to
        // this client. A nested call (thread-migration chaining, Fig. 1)
        // marshals its arguments *before* the VMFUNC, i.e. from the
        // intermediate server's address space, so the chain's buffers must
        // be reachable there too.
        let shared_buf = layout::SB_SHARED_BUF_BASE.add(
            ((server * layout::SB_CONNECTIONS + next_conn) * layout::SB_SHARED_BUF_SIZE) as u64,
        );
        let buf_pages = layout::SB_SHARED_BUF_SIZE / PAGE_SIZE as usize;
        let server_asp = k.processes[server_pid].asp;
        let first =
            server_asp.alloc_and_map(&mut k.mem, shared_buf, buf_pages, PteFlags::USER_DATA);
        let map_into = |k: &mut Kernel, pid: ProcessId, at: Gva, gpa0: u64| {
            let asp = k.processes[pid].asp;
            for i in 0..buf_pages {
                asp.map(
                    &mut k.mem,
                    at.add(i as u64 * PAGE_SIZE),
                    sb_mem::Gpa(gpa0 + i as u64 * PAGE_SIZE),
                    PteFlags::USER_DATA,
                );
            }
        };
        map_into(k, client_pid, shared_buf, first.0);
        // Cross-map along the client's existing bindings (both directions
        // of the dependency chain).
        let peers: Vec<(ProcessId, Gva, u64)> = self
            .bindings
            .get(client_pid)
            .into_iter()
            .flatten()
            .flatten()
            .map(|b| (self.servers[b.server].process, b.shared_buf, b.buf_gpa))
            .collect();
        for (peer_pid, peer_buf, peer_gpa) in peers {
            if peer_pid != server_pid {
                map_into(k, peer_pid, shared_buf, first.0);
                map_into(k, server_pid, peer_buf, peer_gpa);
            }
        }

        // Generate the 8-byte calling key and record it in the server's
        // key table (a real write into server memory).
        let server_key = self.rng.next_u64();
        let slot_gva = key_table.add(8 * (next_conn as u64));
        write_setup_pid(k, server_pid, slot_gva, &server_key.to_le_bytes());

        // Server stack for this connection (ordinal-addressed in the
        // server's space).
        let ordinal = self
            .servers
            .iter()
            .take(server)
            .filter(|s| s.process == server_pid)
            .count();
        let server_stack = layout::SB_STACK_BASE
            .add(((ordinal * layout::SB_CONNECTIONS + next_conn) * layout::SB_STACK_SIZE) as u64);

        // The server function list (§3.1): record the handler address at
        // the server's slot. The page is read-only for user mode; the
        // Subkernel writes through the physical frame.
        let frame = self.fn_list_gpa.expect("registered processes map it");
        let handler_gva = self.servers[server].handler_fn.0;
        k.mem.write_u64(Hpa(frame + server as u64 * 8), handler_gva);

        // Install the binding EPT into the client's EPTP list; the
        // context-switch hook keeps the VMCS list in sync.
        if let Some(list) = k.processes[client_pid].eptp_list.as_mut() {
            let (_slot, _evicted) = list.ensure(ept_root);
        }
        self.reinstall_if_current(k, client_pid);

        *slot(slot(&mut self.bindings, client_pid), server) = Some(Binding {
            server,
            connection: next_conn,
            server_key,
            shared_buf,
            buf_gpa: first.0,
            server_stack,
            ept_root,
        });
        // A fresh binding succeeded: any outstanding slot-exhaustion
        // refusal has been retried past — the recovery path completed.
        self.faults.recovered(FaultPoint::BufferExhaust);
        Ok(())
    }

    /// Re-installs a process's EPTP list on the core where it currently
    /// runs (bindings may change while scheduled).
    fn reinstall_if_current(&self, k: &mut Kernel, pid: ProcessId) {
        if k.rootkernel.is_none() {
            return;
        }
        for core in 0..k.machine.num_cores() {
            if let Some(tid) = k.current_thread(core) {
                if k.threads[tid].process == pid {
                    if let (Some(rk), Some(list)) =
                        (k.rootkernel.as_mut(), k.processes[pid].eptp_list.clone())
                    {
                        rk.install_eptp_list(&mut k.machine, core, list);
                        // Re-enter the process's own EPT.
                        rk.vmfunc(&mut k.machine, core, 0, 0)
                            .expect("slot 0 pinned");
                    }
                }
            }
        }
    }

    /// The binding of `(client process, server)`, if registered.
    pub fn binding(&self, client: ProcessId, server: ServerId) -> Option<&Binding> {
        self.bindings.get(client)?.get(server)?.as_ref()
    }

    fn binding_slot(
        &mut self,
        client: ProcessId,
        server: ServerId,
    ) -> Option<&mut Option<Binding>> {
        self.bindings.get_mut(client)?.get_mut(server)
    }

    fn is_registered(&self, pid: ProcessId) -> bool {
        self.registered.get(pid).is_some_and(|&r| r)
    }

    /// The binding a call from `client` to `server` rides, or why it
    /// cannot be made.
    fn bound(&self, client: ProcessId, server: ServerId) -> Result<&Binding, SbError> {
        if !self.is_registered(client) {
            return Err(SbError::NotRegistered);
        }
        self.binding(client, server).ok_or(SbError::NotBound)
    }

    /// Overwrites a binding's presented key (attack simulation only: the
    /// client "guesses" a key instead of using the granted one).
    pub fn corrupt_binding_key(&mut self, client: ProcessId, server: ServerId, key: u64) {
        if let Some(Some(b)) = self.binding_slot(client, server) {
            b.server_key = key;
        }
    }

    /// Makes `server` echo the client's per-call key with `flip` XORed
    /// in (attack simulation only: a malicious server hands control back
    /// with a key it was never given). 0 restores the honest echo.
    pub fn corrupt_echo_key(&mut self, server: ServerId, flip: u64) {
        if let Some(s) = self.servers.get_mut(server) {
            s.echo_flip = flip;
        }
    }

    /// `direct_server_call` (Fig. 4): invokes `server`'s registered
    /// handler from `client_tid` without entering the kernel, and returns
    /// the reply bytes along with the Figure 7-style breakdown of the
    /// transit costs.
    ///
    /// Compatibility wrapper over [`SkyBridge::direct_server_call_raw`]
    /// that materialises an echo reply into a fresh `Vec`. Scenario
    /// drivers, examples and tests use it; the serving hot path
    /// (`sb-runtime`'s transports) calls the raw form and reads the reply
    /// in place.
    pub fn direct_server_call(
        &mut self,
        k: &mut Kernel,
        client_tid: ThreadId,
        server: ServerId,
        request: &[u8],
    ) -> Result<(Vec<u8>, Breakdown), SbError> {
        let (out, b) = self.direct_server_call_raw(k, client_tid, server, request)?;
        Ok((out.unwrap_or_else(|| request.to_vec()), b))
    }

    /// The zero-copy `direct_server_call`: the request slice is written
    /// once into the connection's shared buffer and served in place; the
    /// server-space read, the reply write into the caller-visible half,
    /// and the client's read-back are charge-only (identical simulated
    /// translation and cache traffic, no host copies). Returns `None` for
    /// an echo reply — the reply bytes are the request's, still in the
    /// caller's staging buffer — or `Some(bytes)` when the handler
    /// produced a real payload.
    ///
    /// The crossing is the one the batched path runs too: open → VMFUNC
    /// → admit → serve → VMFUNC back → return. What is direct-only is
    /// the client's marshal and read-back, the `Trampoline`/`Switch`
    /// spans and the Figure 7 [`Breakdown`].
    pub fn direct_server_call_raw(
        &mut self,
        k: &mut Kernel,
        client_tid: ThreadId,
        server: ServerId,
        request: &[u8],
    ) -> Result<(Option<Vec<u8>>, Breakdown), SbError> {
        if request.len() > layout::SB_SHARED_BUF_SIZE {
            return Err(SbError::MessageTooLarge);
        }
        let c = self.open(k, client_tid, server)?;
        let core = c.core;
        let vmfunc = k.machine.cost.vmfunc;
        let mut b = Breakdown::new();
        // The request-scoped trace id for every span of this call —
        // including the nested calls a handler makes, which run on the
        // same facility and see the same stamp.
        let corr = self.trace_corr;
        // Large arguments go through the shared buffer. The copy is its
        // own Marshal span; the entry Trampoline span ends where the
        // copy starts (the spans are flat siblings, never nested, so the
        // phase fold charges each its own cycles exactly once).
        let t_marshal = k.machine.cpu(core).tsc;
        self.recorder
            .span(core, SpanKind::Trampoline, c.entered, t_marshal, corr);
        if request.len() > REGISTER_ARGS_MAX {
            k.user_write(client_tid, c.shared_buf, request)?;
            let now = k.machine.cpu(core).tsc;
            self.recorder
                .span(core, SpanKind::Marshal, t_marshal, now, corr);
        }
        b.add(Component::Other, k.machine.cpu(core).tsc - c.entered);

        self.vmfunc_to(k, core, c.client_pid, c.ept_root)?;
        b.add(Component::Vmfunc, vmfunc);

        // Everything between the two VMFUNCs is the Handler span: key
        // check, handler body, and the reply write into the shared
        // buffer. The breakdown leaves out the request read and the
        // handler body.
        let t_srv = k.machine.cpu(core).tsc;
        let served = self.admit(k, &c).and_then(|()| {
            b.add(Component::Other, k.machine.cpu(core).tsc - t_srv);
            self.serve(k, &c, request)
        });
        let now = k.machine.cpu(core).tsc;
        self.recorder
            .span(core, SpanKind::Handler, t_srv, now, corr);
        let served = match served {
            Ok(served) => served,
            Err(e) => {
                // The Subkernel bounces the caller back to where it
                // entered from.
                self.vmfunc_to(k, core, c.client_pid, c.return_root)?;
                k.identity_record(core, c.return_identity);
                return Err(e);
            }
        };
        b.add(Component::Other, now - served.reply_at);

        self.vmfunc_to(k, core, c.client_pid, c.return_root)?;
        b.add(Component::Vmfunc, vmfunc);

        // Large replies come back through the shared buffer; the read is
        // charge-only since the bytes are already host-side (the caller's
        // staged request for an echo, the handler's `Vec` otherwise). As
        // on entry, the read-back is a Marshal span flat after the return
        // Trampoline span.
        let t0 = k.machine.cpu(core).tsc;
        let returned = self.ret(k, &c);
        let t_read = k.machine.cpu(core).tsc;
        self.recorder
            .span(core, SpanKind::Trampoline, t0, t_read, corr);
        returned?;
        if served.reply_len > REGISTER_ARGS_MAX {
            k.user_touch(client_tid, c.shared_buf, served.reply_len, Access::Read)?;
            let now = k.machine.cpu(core).tsc;
            self.recorder
                .span(core, SpanKind::Marshal, t_read, now, corr);
        }
        b.add(Component::Other, k.machine.cpu(core).tsc - t0);
        self.complete(server, &served)?;
        Ok((served.reply, b))
    }

    /// Opens a batched crossing: the client-side trampoline, the VMFUNC
    /// into the server EPT, and the server-side key check run **once**,
    /// then [`SkyBridge::batch_serve`] handles any number of frames on
    /// the migrated thread before [`SkyBridge::batch_end`] pays the
    /// return crossing. This is the ring doorbell's native fast path:
    /// the migrating-thread model already serves each call to completion
    /// on the caller's schedulable entity, so serving consecutive frames
    /// of the same connection inside one crossing changes nothing about
    /// isolation — the key check guards the *binding*, which is
    /// identical for every frame in the batch.
    ///
    /// No `Trampoline`/`Switch` spans are emitted for the shared
    /// crossing; in ring mode that overhead is the doorbell span's
    /// self-time, keeping the per-phase identity closed.
    pub fn batch_begin(
        &mut self,
        k: &mut Kernel,
        client_tid: ThreadId,
        server: ServerId,
    ) -> Result<BatchSession, SbError> {
        let crossing = self.open(k, client_tid, server)?;
        let (core, pid) = (crossing.core, crossing.client_pid);
        self.vmfunc_to_inner(k, core, pid, crossing.ept_root)?;
        if let Err(e) = self.admit(k, &crossing) {
            // Refused before any frame: the bounce back, without the
            // return trampoline.
            self.vmfunc_to_inner(k, core, pid, crossing.return_root)?;
            k.identity_record(core, crossing.return_identity);
            return Err(e);
        }
        Ok(BatchSession {
            crossing,
            open: true,
        })
    }

    /// Serves one frame inside an open batched crossing: the server's
    /// copy of the frame into the shared buffer, the handler run, the
    /// reply write and the client's read-back — everything direct mode
    /// charges per call *minus* the crossing. Emits the entry's `Call`
    /// span (with its nested `Marshal`/`Handler` spans) under `corr`.
    ///
    /// Any error forces the return crossing immediately (§7's forced
    /// return for timeouts, the Subkernel bounce for a crash) and closes
    /// the session — unserved frames stay queued for a later crossing.
    pub fn batch_serve(
        &mut self,
        k: &mut Kernel,
        s: &mut BatchSession,
        request: &[u8],
        corr: u64,
    ) -> Result<Option<Vec<u8>>, SbError> {
        debug_assert!(s.open, "batch_serve on a closed session");
        let (core, server) = (s.crossing.core, s.crossing.server);
        self.trace_corr = corr;
        let t_entry = k.machine.cpu(core).tsc;
        self.recorder.begin(core, SpanKind::Call, t_entry, corr);
        let served = self.batch_frame(k, &s.crossing, request, corr);
        let now = k.machine.cpu(core).tsc;
        self.recorder.end(core, SpanKind::Call, now, corr);
        let out = served.and_then(|served| self.complete(server, &served).map(|()| served.reply));
        if out.is_err() {
            self.batch_close(k, s)?;
        }
        out
    }

    /// The inside of one frame's `Call` span: the server copies the frame
    /// from its ring slot into the connection's working buffer (the
    /// batch-mode analogue of the client's single marshal write), the
    /// handler runs in a `Handler` span, and the client reads the reply
    /// back.
    fn batch_frame(
        &mut self,
        k: &mut Kernel,
        c: &Crossing,
        request: &[u8],
        corr: u64,
    ) -> Result<Served, SbError> {
        let core = c.core;
        if request.len() > layout::SB_SHARED_BUF_SIZE {
            return Err(SbError::MessageTooLarge);
        }
        if request.len() > REGISTER_ARGS_MAX {
            let t_marshal = k.machine.cpu(core).tsc;
            walk::write_bytes(
                &mut k.machine,
                core,
                &mut k.mem,
                c.shared_buf,
                request,
                true,
            )?;
            let now = k.machine.cpu(core).tsc;
            self.recorder
                .span(core, SpanKind::Marshal, t_marshal, now, corr);
        }
        let t_srv = k.machine.cpu(core).tsc;
        let served = self.serve(k, c, request);
        let now = k.machine.cpu(core).tsc;
        self.recorder
            .span(core, SpanKind::Handler, t_srv, now, corr);
        let served = served?;
        // The client's read-back of the completion — charged here, at
        // the point the reply bytes land in the completion ring.
        if served.reply_len > REGISTER_ARGS_MAX {
            let t_read = k.machine.cpu(core).tsc;
            let (buf, len) = (c.shared_buf, served.reply_len);
            walk::touch_bytes(&mut k.machine, core, &k.mem, buf, len, Access::Read, true)?;
            let now = k.machine.cpu(core).tsc;
            self.recorder
                .span(core, SpanKind::Marshal, t_read, now, corr);
        }
        Ok(served)
    }

    /// Pays the return crossing of an open session (no-op when an error
    /// path already forced it): VMFUNC back, identity restore, the
    /// return half of the trampoline, and the client key recheck.
    pub fn batch_end(&mut self, k: &mut Kernel, mut s: BatchSession) -> Result<(), SbError> {
        self.batch_close(k, &mut s)
    }

    fn batch_close(&mut self, k: &mut Kernel, s: &mut BatchSession) -> Result<(), SbError> {
        if !s.open {
            return Ok(());
        }
        s.open = false;
        let c = &s.crossing;
        self.vmfunc_to_inner(k, c.core, c.client_pid, c.return_root)?;
        self.ret(k, c)
    }

    /// The client half of the entry: the binding and liveness checks,
    /// the entry trampoline, the fresh per-call client key (§4.4) and
    /// the target's lookup in the mapped server function list (§3.1).
    fn open(
        &mut self,
        k: &mut Kernel,
        client_tid: ThreadId,
        server: ServerId,
    ) -> Result<Crossing, SbError> {
        let client_pid = k.threads[client_tid].process;
        let core = k.threads[client_tid].core;
        debug_assert_eq!(k.current_thread(core), Some(client_tid));
        let &Binding {
            connection,
            server_key,
            shared_buf,
            ept_root,
            ..
        } = self.bound(client_pid, server)?;
        if self.servers[server].dead {
            // Crashed earlier and not yet revived: refuse before touching
            // the server's address space.
            return Err(SbError::ServerDead { server });
        }
        let return_root = Hpa(k.machine.cpu(core).ept_root);
        // A charged read of the identity page: the entry clock starts
        // after it.
        let return_identity = k.identity_current(core).unwrap_or(client_pid);
        let entered = k.machine.cpu(core).tsc;
        k.user_exec(
            client_tid,
            layout::TRAMPOLINE_BASE,
            trampoline::TRAMPOLINE_FETCH,
        )?;
        let logic = k.machine.cost.trampoline_logic;
        k.machine.cpu_mut(core).advance(logic);
        let client_key = self.rng.next_u64();
        let mut entry = [0u8; 8];
        let at = layout::SERVER_LIST_BASE.add(server as u64 * 8);
        walk::read_bytes(&mut k.machine, core, &k.mem, at, &mut entry, true)?;
        debug_assert_eq!(
            u64::from_le_bytes(entry),
            self.servers[server].handler_fn.0,
            "function list must name the registered handler"
        );
        Ok(Crossing {
            server,
            server_pid: self.servers[server].process,
            client_tid,
            client_pid,
            core,
            connection,
            server_key,
            shared_buf,
            ept_root,
            return_root,
            return_identity,
            client_key,
            entered,
        })
    }

    /// The server half of the entry, on the server EPT: the identity
    /// write, the calling-key check against the server's table (§4.4)
    /// and the handler's code fetch.
    fn admit(&mut self, k: &mut Kernel, c: &Crossing) -> Result<(), SbError> {
        let core = c.core;
        k.identity_record(core, c.server_pid);
        let logic = k.machine.cost.trampoline_logic;
        k.machine.cpu_mut(core).advance(logic / 2);
        // Key check against the server's table (a real read of server
        // memory under the server's address space).
        let s = &self.servers[c.server];
        let mut stored = [0u8; 8];
        let at = s.key_table.add(8 * c.connection as u64);
        walk::read_bytes(&mut k.machine, core, &k.mem, at, &mut stored, true)?;
        // Injected key corruption: the presented key is flipped on the
        // wire (a guessing attack); the table check below must refuse it.
        let presented_key = if self.faults.fire(FaultPoint::KeyCorrupt) {
            c.server_key ^ (1 + self.faults.draw(u64::MAX - 1))
        } else {
            c.server_key
        };
        if u64::from_le_bytes(stored) != presented_key {
            // Refuse and notify the Subkernel (§4.4).
            self.faults.detected(FaultPoint::KeyCorrupt);
            self.violations.push(Violation::BadServerKey {
                client: c.client_pid,
                server: c.server,
            });
            return Err(SbError::BadServerKey);
        }
        // Handler entry: fetch its code like a real call would — through
        // the client's (unchanged) CR3, resolved by the server EPT's
        // remap into the *server's* page table. In a batch it stays
        // I-cache-hot for every frame.
        k.user_exec(c.client_tid, s.handler_fn, s.handler_len)?;
        Ok(())
    }

    /// The handler on the migrated thread: the in-place request read, the
    /// handler run under the §7 budget, then the reply-size check and the
    /// reply placement in the shared buffer.
    fn serve(&mut self, k: &mut Kernel, c: &Crossing, request: &[u8]) -> Result<Served, SbError> {
        let (core, server) = (c.core, c.server);
        // The request is served in place: the payload already sits in the
        // shared buffer, so this read is charge-only (same translation
        // and cache traffic as a real read) and the handler sees the
        // caller's slice directly.
        if request.len() > REGISTER_ARGS_MAX {
            let (buf, len) = (c.shared_buf, request.len());
            walk::touch_bytes(&mut k.machine, core, &k.mem, buf, len, Access::Read, true)?;
        }
        // Injected handler panic: the server thread dies mid-request. The
        // Subkernel notices, marks the server dead, and bounces the caller
        // back to its own space; recovery is revive + rebind + retry.
        if self.faults.fire(FaultPoint::HandlerPanic) {
            self.kill_server(k, server);
            self.violations.push(Violation::ServerCrash { server });
            self.faults.detected(FaultPoint::HandlerPanic);
            return Err(SbError::ServerDead { server });
        }
        let ctx = HandlerCtx {
            server,
            server_process: c.server_pid,
            caller: c.client_tid,
            shared_buf: c.shared_buf,
            connection: c.connection,
        };
        let handler_t0 = k.machine.cpu(core).tsc;
        let mut handler = self.handlers[server].take().expect("handler re-entered");
        let result = handler(self, k, ctx, request);
        self.handlers[server] = Some(handler);
        // Injected handler hang: the handler spins past the DoS budget.
        // Only injectable when a timeout is configured — without one a
        // hang has no recovery path and would wedge the simulation.
        let hung = self.timeout.is_some() && self.faults.fire(FaultPoint::HandlerHang);
        if let (true, Some(limit)) = (hung, self.timeout) {
            k.machine.cpu_mut(core).advance(limit.saturating_add(1));
        }
        let elapsed = k.machine.cpu(core).tsc - handler_t0;
        // DoS timeout (§7): a handler that overran the budget still
        // returns, and the caller is told once it is back.
        let timed_out = self.timeout.is_some_and(|limit| elapsed > limit);
        if hung {
            debug_assert!(timed_out, "an injected hang always overruns the budget");
            // The forced return (§7) IS the recovery for a hang.
            self.faults.recovered(FaultPoint::HandlerHang);
        }
        let reply = match result? {
            HandlerReply::Echo => None,
            HandlerReply::Bytes(v) => Some(v),
        };
        let reply_at = k.machine.cpu(core).tsc;
        let reply_len = reply.as_deref().map_or(request.len(), <[u8]>::len);
        if reply_len > layout::SB_SHARED_BUF_SIZE {
            return Err(SbError::MessageTooLarge);
        }
        // A small reply returns in registers. A larger one lands in the
        // caller-visible half of the shared buffer, where an echo's bytes
        // already are: its write is charge-only.
        let (buf, len) = (c.shared_buf, reply_len);
        match &reply {
            _ if len <= REGISTER_ARGS_MAX => {}
            None => walk::touch_bytes(&mut k.machine, core, &k.mem, buf, len, Access::Write, true)?,
            Some(v) => walk::write_bytes(&mut k.machine, core, &mut k.mem, buf, v, true)?,
        }
        let logic = k.machine.cost.trampoline_logic;
        k.machine.cpu_mut(core).advance(logic / 2);
        Ok(Served {
            reply,
            reply_len,
            elapsed,
            timed_out,
            reply_at,
        })
    }

    /// The client half of the return, back on the caller's EPT: the
    /// identity restore, the return half of the trampoline and its
    /// recheck of the client key the server echoes (§4.4).
    fn ret(&mut self, k: &mut Kernel, c: &Crossing) -> Result<(), SbError> {
        k.identity_record(c.core, c.return_identity);
        k.user_exec(
            c.client_tid,
            Gva(layout::TRAMPOLINE_BASE.0 + 64),
            trampoline::TRAMPOLINE_FETCH / 2,
        )?;
        // The server hands the key back in a register; a malicious
        // server's echo differs from it (`corrupt_echo_key`).
        let echoed_key = c.client_key ^ self.servers[c.server].echo_flip;
        if echoed_key != c.client_key {
            self.violations.push(Violation::BadClientKey {
                client: c.client_pid,
                server: c.server,
            });
            return Err(SbError::BadClientKey);
        }
        Ok(())
    }

    /// The call's outcome once the caller is back: the §7 timeout
    /// report, or one more completed call.
    fn complete(&mut self, server: ServerId, served: &Served) -> Result<(), SbError> {
        if served.timed_out {
            self.violations.push(Violation::Timeout { server });
            return Err(SbError::Timeout {
                server,
                elapsed: served.elapsed,
            });
        }
        self.call_count += 1;
        // A completed call is the retry that resolves an earlier injected
        // key corruption (the refused attempt sent again with the granted
        // key). No-op when nothing is outstanding.
        self.faults.recovered(FaultPoint::KeyCorrupt);
        Ok(())
    }

    /// Executes `VMFUNC` to the binding EPT, handling the LRU-evicted-slot
    /// fault path (§10 extension): a stale slot exits to the Rootkernel,
    /// which reinstalls the root and retries. Each switch — including the
    /// fault + reinstall path's extra cycles — is one `Switch` span.
    fn vmfunc_to(
        &mut self,
        k: &mut Kernel,
        core: usize,
        pid: ProcessId,
        root: Hpa,
    ) -> Result<(), SbError> {
        let t0 = k.machine.cpu(core).tsc;
        let out = self.vmfunc_to_inner(k, core, pid, root);
        let corr = self.trace_corr;
        self.recorder
            .span(core, SpanKind::Switch, t0, k.machine.cpu(core).tsc, corr);
        out
    }

    fn vmfunc_to_inner(
        &mut self,
        k: &mut Kernel,
        core: usize,
        pid: ProcessId,
        root: Hpa,
    ) -> Result<(), SbError> {
        let Some(rk) = k.rootkernel.as_mut() else {
            // SkyBridge requires the Rootkernel underneath the Subkernel.
            return Err(SbError::Vmfunc(
                sb_rootkernel::VmfuncError::NotInNonRootMode,
            ));
        };
        // Injected EPTP eviction: a context switch elsewhere recycled this
        // root's VMCS slot, so the lookup below misses and the VMFUNC
        // takes the fault + reinstall path. Pinned slots can't be evicted;
        // a fire against one is rescinded (it never happened).
        if self.faults.fire(FaultPoint::EptpEvict) && !rk.vmcs[core].eptp_list.evict(root) {
            self.faults.rescind(FaultPoint::EptpEvict);
        }
        let slot = rk.vmcs[core].eptp_list.slot_of(root);
        let result = match slot {
            Some(slot) => rk.vmfunc(&mut k.machine, core, 0, slot),
            // Stale slot (LRU-evicted): the trampoline's VMFUNC really
            // executes with a dead index and takes the fault exit before
            // the Rootkernel repairs the list.
            None => rk.vmfunc(&mut k.machine, core, 0, usize::MAX),
        };
        match result {
            Ok(()) => Ok(()),
            Err(_) => {
                // Slot fault: the Rootkernel validates the root against
                // the process's logical list, reinstalls, and retries.
                // This exit is where an evicted slot becomes *observed*.
                self.faults.detected(FaultPoint::EptpEvict);
                let Some(list) = k.processes[pid].eptp_list.as_mut() else {
                    self.violations
                        .push(Violation::VmfuncFault { process: pid });
                    return Err(SbError::Vmfunc(sb_rootkernel::VmfuncError::InvalidIndex));
                };
                let (slot, _evicted) = list.ensure(root);
                let list = list.clone();
                rk.install_eptp_list(&mut k.machine, core, list);
                match rk.vmfunc(&mut k.machine, core, 0, slot) {
                    Ok(()) => {
                        // Reinstall + retry succeeded — the TLB-refill-
                        // style repair is the eviction's recovery.
                        self.faults.recovered(FaultPoint::EptpEvict);
                        Ok(())
                    }
                    Err(e) => {
                        self.violations
                            .push(Violation::VmfuncFault { process: pid });
                        Err(SbError::Vmfunc(e))
                    }
                }
            }
        }
    }
}

impl Default for SkyBridge {
    fn default() -> Self {
        Self::new()
    }
}

/// `v[i]`, growing `v` with defaults first if it is too short.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Setup-time (uncharged) read of a process's memory.
pub(crate) fn read_setup(k: &Kernel, pid: ProcessId, gva: Gva, buf: &mut [u8]) {
    let asp = k.processes[pid].asp;
    let mut off = 0;
    while off < buf.len() {
        let at = gva.add(off as u64);
        let n = ((PAGE_SIZE - at.page_offset()) as usize).min(buf.len() - off);
        let (gpa, _) = asp.translate_setup(&k.mem, at).unwrap();
        k.mem.read_slice(Hpa(gpa.0), &mut buf[off..off + n]);
        off += n;
    }
}

/// Setup-time (uncharged) write of a process's memory.
pub(crate) fn write_setup(k: &mut Kernel, pid: ProcessId, gva: Gva, data: &[u8]) {
    let asp = k.processes[pid].asp;
    let mut off = 0;
    while off < data.len() {
        let at = gva.add(off as u64);
        let n = ((PAGE_SIZE - at.page_offset()) as usize).min(data.len() - off);
        let (gpa, _) = asp.translate_setup(&k.mem, at).unwrap();
        k.mem.write_slice(Hpa(gpa.0), &data[off..off + n]);
        off += n;
    }
}

/// Setup write addressed by process id (server-side tables).
fn write_setup_pid(k: &mut Kernel, pid: ProcessId, gva: Gva, data: &[u8]) {
    write_setup(k, pid, gva, data);
}
