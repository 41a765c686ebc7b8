//! Synchronous IPC: call and reply, with Figure 7-style breakdowns.
//!
//! A call and its reply are the same leg run in opposite directions
//! (`transfer`, sender → receiver). Its steps, in order, each charged to
//! the Figure 7 component named after it:
//!
//! 1. entry on the sender's core: the mode switch (SYSCALL/SYSRET; under
//!    KPTI its CR3 write is context switch) and the kernel path's text
//!    and data footprint (others);
//! 2. the fastpath or slowpath logic, Fiasco's drq drain included
//!    (others);
//! 3. reading the message out of the sender's space (message copy);
//! 4. only across cores: the IPI (IPI), then an entry on the receiver's
//!    core as in step 1 with the slowpath's text;
//! 5. only off the fastpath: the scheduler, plus the cross-core extra
//!    across cores (schedule);
//! 6. on the receiver's core: its CR3 load (context switch), then the
//!    write of the message into its buffer (message copy).
//!
//! Every step really executes on the simulated machine: kernel text is
//! fetched, message bytes move between address spaces, CR3 loads are
//! charged, IPIs join core clocks. The returned [`Breakdown`] attributes
//! the *measured* cycles of each step to its bucket, so the bench binary
//! can print the same stacked bars.

use sb_mem::MemFault;
use sb_sim::{AccessKind, CpuId, Cycles};

use crate::{
    kernel::Kernel,
    layout,
    personality::Personality,
    process::{Capability, ThreadId, ThreadState},
};

/// Figure 7's cost components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// `VMFUNC` (SkyBridge only).
    Vmfunc,
    /// `SYSCALL`/`SYSRET`/`SWAPGS` mode switching.
    SyscallSysret,
    /// Address-space switches (CR3 writes, including KPTI's).
    ContextSwitch,
    /// Inter-processor interrupts.
    Ipi,
    /// Message copying.
    MessageCopy,
    /// Scheduler involvement.
    Schedule,
    /// Everything else (capability checks, endpoint bookkeeping, kernel
    /// cache footprint, drq drains).
    Other,
}

impl Component {
    /// All components in Figure 7's legend order.
    pub const ALL: [Component; 7] = [
        Component::Vmfunc,
        Component::SyscallSysret,
        Component::ContextSwitch,
        Component::Ipi,
        Component::MessageCopy,
        Component::Schedule,
        Component::Other,
    ];

    /// The legend label used in Figure 7.
    pub fn label(self) -> &'static str {
        match self {
            Component::Vmfunc => "VMFUNC",
            Component::SyscallSysret => "SYSCALL/SYSRET",
            Component::ContextSwitch => "context switch",
            Component::Ipi => "IPI",
            Component::MessageCopy => "message copy",
            Component::Schedule => "schedule",
            Component::Other => "others",
        }
    }
}

/// Cycles attributed per component for one operation.
///
/// One slot per [`Component`], in [`Component::ALL`] order — built on
/// every IPC and every `direct_server_call`, so it lives on the stack.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    parts: [Cycles; Component::ALL.len()],
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds cycles to a component.
    pub fn add(&mut self, component: Component, cycles: Cycles) {
        self.parts[component as usize] += cycles;
    }

    /// Cycles attributed to one component.
    pub fn get(&self, component: Component) -> Cycles {
        self.parts[component as usize]
    }

    /// Sum over all components.
    pub fn total(&self) -> Cycles {
        self.parts.iter().sum()
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (mine, theirs) in self.parts.iter_mut().zip(other.parts) {
            *mine += theirs;
        }
    }

    /// Divides every bucket by `n` (averaging repeated runs).
    pub fn scaled_down(&self, n: u64) -> Breakdown {
        Breakdown {
            parts: self.parts.map(|v| v / n),
        }
    }
}

/// Why an IPC was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcError {
    /// The capability slot is empty.
    NoCapability,
    /// The capability lacks the needed right.
    NoSendRight,
    /// No server thread is bound to the endpoint.
    NoServer,
    /// The server thread is not blocked in `recv`.
    ServerNotReady,
    /// Message exceeds the per-thread buffer.
    MessageTooLarge,
    /// The replier is not the thread the client's call landed on (or the
    /// client awaits no reply).
    NotCallee,
    /// A translation fault while moving the message.
    Fault(MemFault),
}

impl std::fmt::Display for IpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpcError::NoCapability => write!(f, "empty capability slot"),
            IpcError::NoSendRight => write!(f, "capability lacks send right"),
            IpcError::NoServer => write!(f, "endpoint has no server"),
            IpcError::ServerNotReady => write!(f, "server not in recv"),
            IpcError::MessageTooLarge => write!(f, "message too large"),
            IpcError::NotCallee => write!(f, "replier is not the client's callee"),
            IpcError::Fault(e) => write!(f, "fault during transfer: {e}"),
        }
    }
}

impl std::error::Error for IpcError {}

impl From<MemFault> for IpcError {
    fn from(f: MemFault) -> Self {
        IpcError::Fault(f)
    }
}

impl Kernel {
    fn tsc(&self, core: CpuId) -> Cycles {
        self.machine.cpu(core).tsc
    }

    /// Reads `len` message bytes out of `from`'s buffer under the *source*
    /// address space (which must be active on `read_core`), charging per
    /// the personality's copy regime. Returns the staged bytes; they are
    /// written into the destination space by
    /// [`Kernel::deliver_message`] *after* the address-space switch — a
    /// kernel cannot dereference the destination buffer before the
    /// receiver's mappings are in reach.
    fn read_message(
        &mut self,
        b: &mut Breakdown,
        p: &Personality,
        from: ThreadId,
        len: usize,
        read_core: CpuId,
    ) -> Result<Option<Vec<u8>>, IpcError> {
        if len == 0 {
            return Ok(None);
        }
        let src = self.threads[from].msg_buf;
        // The staging buffer is handed back by `deliver_message`, so the
        // steady state allocates nothing.
        let mut data = std::mem::take(&mut self.msg_staging);
        data.clear();
        data.resize(len, 0);
        let in_registers = len <= p.register_msg_max;
        if in_registers || p.temporary_mapping {
            // In registers no memory copy is charged. Under §8.1's L4
            // temporary mapping the kernel maps the sender's buffer into
            // the receiver and the receiver-side write *is* the single
            // copy (charged at deliver time); here it pays only the
            // map/unmap. Either way the bytes move for functional
            // fidelity, in one read: the buffer is one page.
            if !in_registers {
                const MAP_UNMAP: Cycles = 350;
                self.machine.cpu_mut(read_core).advance(MAP_UNMAP);
                b.add(Component::MessageCopy, MAP_UNMAP);
            }
            let from_asp = self.processes[self.threads[from].process].asp;
            let (gpa, _) = from_asp.translate_setup(&self.mem, src).unwrap();
            self.mem.read_slice(sb_mem::Hpa(gpa.0), &mut data);
            return Ok(Some(data));
        }
        let t0 = self.tsc(read_core);
        sb_mem::walk::read_bytes(
            &mut self.machine,
            read_core,
            &self.mem,
            src,
            &mut data,
            false,
        )?;
        let words = len.div_ceil(8) as Cycles;
        let per_copy = p.copy_setup + words * self.machine.cost.copy_per_word;
        self.machine.cpu_mut(read_core).advance(per_copy);
        if p.copies_per_transfer >= 2 {
            // Zircon: stage through an in-kernel channel buffer.
            let buf = self.kernel_copy_buf_hpa();
            self.machine
                .mem_access_span(read_core, buf, len.div_ceil(64), AccessKind::DataWrite);
            self.machine.cpu_mut(read_core).advance(per_copy);
        }
        b.add(Component::MessageCopy, self.tsc(read_core) - t0);
        Ok(Some(data))
    }

    /// Writes staged message bytes into `to`'s buffer under the receiver's
    /// address space (active on `write_core`).
    fn deliver_message(
        &mut self,
        b: &mut Breakdown,
        to: ThreadId,
        data: Option<Vec<u8>>,
        write_core: CpuId,
    ) -> Result<(), IpcError> {
        let Some(data) = data else { return Ok(()) };
        let dst = self.threads[to].msg_buf;
        let written = if data.len() <= self.personality.register_msg_max {
            let to_asp = self.processes[self.threads[to].process].asp;
            let (gpa, _) = to_asp.translate_setup(&self.mem, dst).unwrap();
            self.mem.write_slice(sb_mem::Hpa(gpa.0), &data);
            Ok(())
        } else {
            let t0 = self.tsc(write_core);
            let written = sb_mem::walk::write_bytes(
                &mut self.machine,
                write_core,
                &mut self.mem,
                dst,
                &data,
                false,
            );
            b.add(Component::MessageCopy, self.tsc(write_core) - t0);
            written
        };
        self.msg_staging = data;
        written.map_err(IpcError::Fault)
    }

    fn kernel_copy_buf_hpa(&self) -> u64 {
        // Reuse the upper half of the kernel data region as channel
        // buffers.
        self.kernel_data_region() + 128 * 1024
    }

    /// Synchronous call: the client sends `msg_len` bytes from its message
    /// buffer through the capability in `cap_slot` and control transfers
    /// to the serving thread. On return the server is current on its core,
    /// ready to run the handler; the client is reply-blocked on it.
    pub fn ipc_call(
        &mut self,
        client: ThreadId,
        cap_slot: usize,
        msg_len: usize,
    ) -> Result<Breakdown, IpcError> {
        debug_assert_eq!(self.current_thread(self.threads[client].core), Some(client));
        // Capability + endpoint resolution (validated before any charge;
        // the in-kernel check cost is part of the personality's logic).
        let Capability::Endpoint { endpoint, rights } = self.processes
            [self.threads[client].process]
            .cap(cap_slot)
            .ok_or(IpcError::NoCapability)?;
        if !rights.send {
            return Err(IpcError::NoSendRight);
        }
        let server = self.endpoints[endpoint].server.ok_or(IpcError::NoServer)?;
        if self.threads[server].state != ThreadState::RecvBlocked {
            return Err(IpcError::ServerNotReady);
        }
        let b = self.transfer(client, server, msg_len, self.endpoints[endpoint].object)?;
        self.threads[client].state = ThreadState::ReplyBlocked(server);
        self.threads[server].state = ThreadState::Ready;
        Ok(b)
    }

    /// Reply: control returns from `server` to the `client` whose call
    /// landed on it; the server re-enters `recv` on its endpoint
    /// (`ReplyWait`). Any other replier is refused before any charge.
    pub fn ipc_reply(
        &mut self,
        server: ThreadId,
        client: ThreadId,
        reply_len: usize,
    ) -> Result<Breakdown, IpcError> {
        debug_assert_eq!(self.current_thread(self.threads[server].core), Some(server));
        if self.threads[client].state != ThreadState::ReplyBlocked(server) {
            return Err(IpcError::NotCallee);
        }
        let b = self.transfer(server, client, reply_len, server)?;
        self.threads[client].state = ThreadState::Ready;
        self.threads[server].state = ThreadState::RecvBlocked;
        Ok(b)
    }

    /// One empty-message call/reply roundtrip (the Figure 7 microbench
    /// unit), returning the merged breakdown.
    pub fn ipc_roundtrip(
        &mut self,
        client: ThreadId,
        cap_slot: usize,
        server: ThreadId,
    ) -> Result<Breakdown, IpcError> {
        let mut b = self.ipc_call(client, cap_slot, 0)?;
        let reply = self.ipc_reply(server, client, 0)?;
        b.merge(&reply);
        Ok(b)
    }

    /// One IPC leg, `from` → `to`, for call and reply alike (the module
    /// doc lists its steps). On success `to` is current on its core;
    /// `seed` scatters the leg's kernel data touches.
    fn transfer(
        &mut self,
        from: ThreadId,
        to: ThreadId,
        len: usize,
        seed: usize,
    ) -> Result<Breakdown, IpcError> {
        if len > layout::MSG_BUF_SIZE {
            return Err(IpcError::MessageTooLarge);
        }
        let p = self.personality.clone();
        let (src, dst) = (self.threads[from].core, self.threads[to].core);
        let crossing = src != dst;
        let fast = !crossing && p.has_fastpath && len <= p.register_msg_max;
        let mut b = Breakdown::new();

        let text = if fast { p.text_fast } else { p.text_slow };
        self.enter(&mut b, src, text, seed);
        let logic = if fast {
            p.fastpath_logic + p.drq_cost
        } else {
            p.slowpath_logic
        };
        self.machine.cpu_mut(src).advance(logic);
        b.add(Component::Other, logic);
        let msg = self.read_message(&mut b, &p, from, len, src)?;
        if crossing {
            // Wake the receiver's core: IPI, then interrupt entry and the
            // slowpath there; the sender's core idles.
            self.machine.ipi(src, dst);
            b.add(Component::Ipi, self.machine.cost.ipi);
            self.current_set(src, None);
            self.enter(&mut b, dst, p.text_slow, seed);
        }
        if !fast {
            let extra = if crossing { p.cross_core_extra } else { 0 };
            let sched = p.schedule_cost + extra;
            self.machine.cpu_mut(dst).advance(sched);
            b.add(Component::Schedule, sched);
        }
        let t0 = self.tsc(dst);
        self.switch_address_space(dst, self.threads[to].process);
        b.add(Component::ContextSwitch, self.tsc(dst) - t0);
        self.deliver_message(&mut b, to, msg, dst)?;
        self.current_set(dst, Some(to));
        Ok(b)
    }

    /// Kernel entry on `core`: the mode switch (plus KPTI's CR3 write)
    /// and `text` bytes of kernel path with the personality's data
    /// footprint.
    fn enter(&mut self, b: &mut Breakdown, core: CpuId, text: usize, seed: usize) {
        let (mode, kpti) = self.mode_switch(core);
        b.add(Component::SyscallSysret, mode);
        b.add(Component::ContextSwitch, kpti);
        let t0 = self.tsc(core);
        self.kernel_work_seeded(core, text, self.personality.data_touch, seed);
        b.add(Component::Other, self.tsc(core) - t0);
    }
}

#[cfg(test)]
mod tests {
    use crate::{kernel::KernelConfig, personality::Personality};

    use super::*;

    struct Rig {
        k: Kernel,
        client: ThreadId,
        server: ThreadId,
        send_slot: usize,
    }

    fn rig(personality: Personality, server_core: CpuId) -> Rig {
        let mut k = Kernel::boot(KernelConfig::native(personality));
        let code = vec![0x90u8; 4096];
        let cp = k.create_process(&code);
        let sp = k.create_process(&code);
        let client = k.create_thread(cp, 0);
        let server = k.create_thread(sp, server_core);
        let (ep, _) = k.create_endpoint(sp);
        let send_slot = k.grant_send(cp, ep);
        k.server_recv(server, ep);
        k.run_thread(client);
        Rig {
            k,
            client,
            server,
            send_slot,
        }
    }

    fn steady_roundtrip(r: &mut Rig, warmup: usize) -> Breakdown {
        for _ in 0..warmup {
            r.k.ipc_roundtrip(r.client, r.send_slot, r.server).unwrap();
        }
        r.k.ipc_roundtrip(r.client, r.send_slot, r.server).unwrap()
    }

    #[test]
    fn sel4_fastpath_roundtrip_near_986() {
        let mut r = rig(Personality::sel4(), 0);
        let b = steady_roundtrip(&mut r, 50);
        let t = b.total();
        assert!(
            (930..=1120).contains(&t),
            "seL4 fastpath roundtrip {t} not near the paper's 986"
        );
        assert_eq!(b.get(Component::Ipi), 0);
        assert_eq!(b.get(Component::Schedule), 0);
        // Direct-cost identities.
        assert_eq!(b.get(Component::SyscallSysret), 2 * 209);
        assert_eq!(b.get(Component::ContextSwitch), 2 * 186);
    }

    #[test]
    fn sel4_cross_core_pays_two_ipis() {
        let mut r = rig(Personality::sel4(), 1);
        let b = steady_roundtrip(&mut r, 50);
        assert_eq!(b.get(Component::Ipi), 2 * 1913);
        assert!(b.get(Component::Schedule) > 0);
        let t = b.total();
        assert!(
            (6000..=7600).contains(&t),
            "seL4 cross-core roundtrip {t} not near the paper's 6764"
        );
    }

    #[test]
    fn fiasco_fastpath_slower_than_sel4() {
        let mut rs = rig(Personality::sel4(), 0);
        let mut rf = rig(Personality::fiasco_oc(), 0);
        let s = steady_roundtrip(&mut rs, 50).total();
        let f = steady_roundtrip(&mut rf, 50).total();
        assert!(f > s, "Fiasco ({f}) must be slower than seL4 ({s})");
        assert!(
            (2400..=3100).contains(&f),
            "Fiasco roundtrip {f} not near the paper's 2717"
        );
    }

    #[test]
    fn zircon_always_schedules_and_copies_twice() {
        let mut r = rig(Personality::zircon(), 0);
        let b = steady_roundtrip(&mut r, 50);
        assert!(b.get(Component::Schedule) > 0, "no fastpath in Zircon");
        let t = b.total();
        assert!(
            (7300..=9100).contains(&t),
            "Zircon roundtrip {t} not near the paper's 8157"
        );
    }

    #[test]
    fn zircon_cross_core_near_20099() {
        let mut r = rig(Personality::zircon(), 1);
        let t = steady_roundtrip(&mut r, 50).total();
        assert!(
            (18000..=22500).contains(&t),
            "Zircon cross-core roundtrip {t} not near the paper's 20099"
        );
    }

    #[test]
    fn message_bytes_are_delivered() {
        let mut r = rig(Personality::sel4(), 0);
        let msg = b"query:k123".to_vec();
        r.k.user_write(r.client, r.k.threads[r.client].msg_buf, &msg)
            .unwrap();
        r.k.ipc_call(r.client, r.send_slot, msg.len()).unwrap();
        // Server is now current; read its buffer.
        let mut got = vec![0u8; msg.len()];
        r.k.user_read(r.server, r.k.threads[r.server].msg_buf, &mut got)
            .unwrap();
        assert_eq!(got, msg);
        r.k.ipc_reply(r.server, r.client, 0).unwrap();
    }

    #[test]
    fn large_message_charges_copy() {
        let mut r = rig(Personality::sel4(), 0);
        let msg = vec![7u8; 1024];
        r.k.user_write(r.client, r.k.threads[r.client].msg_buf, &msg)
            .unwrap();
        let b = r.k.ipc_call(r.client, r.send_slot, msg.len()).unwrap();
        assert!(b.get(Component::MessageCopy) > 0);
        r.k.ipc_reply(r.server, r.client, 0).unwrap();
    }

    #[test]
    fn register_sized_message_is_free_of_copies() {
        let mut r = rig(Personality::sel4(), 0);
        let msg = vec![7u8; 32];
        r.k.user_write(r.client, r.k.threads[r.client].msg_buf, &msg)
            .unwrap();
        let b = r.k.ipc_call(r.client, r.send_slot, msg.len()).unwrap();
        assert_eq!(b.get(Component::MessageCopy), 0);
        r.k.ipc_reply(r.server, r.client, 0).unwrap();
    }

    #[test]
    fn capability_enforcement() {
        let mut r = rig(Personality::sel4(), 0);
        // Slot beyond the table.
        assert_eq!(r.k.ipc_call(r.client, 99, 0), Err(IpcError::NoCapability));
        // A recv-only capability cannot send: give the client one.
        let ep = r.k.endpoints[0].id;
        let cp = r.k.threads[r.client].process;
        let slot = r.k.processes[cp].grant(Capability::Endpoint {
            endpoint: ep,
            rights: crate::process::CapRights::RECV,
        });
        assert_eq!(r.k.ipc_call(r.client, slot, 0), Err(IpcError::NoSendRight));
    }

    #[test]
    fn call_to_busy_server_is_refused() {
        let mut r = rig(Personality::sel4(), 0);
        r.k.ipc_call(r.client, r.send_slot, 0).unwrap();
        // Server is running (not in recv); a second call must fail.
        // (Re-run the client on core 0 to attempt it.)
        r.k.threads[r.client].state = ThreadState::Ready;
        r.k.run_thread(r.client);
        assert_eq!(
            r.k.ipc_call(r.client, r.send_slot, 0),
            Err(IpcError::ServerNotReady)
        );
    }

    /// Only the thread a call landed on may answer it. An impostor's
    /// reply is refused, and the real server still answers afterwards,
    /// so its endpoint keeps serving calls.
    #[test]
    fn only_the_callee_may_reply() {
        let mut r = rig(Personality::sel4(), 1);
        let ip = r.k.create_process(&[0x90; 64]);
        let impostor = r.k.create_thread(ip, 2);
        r.k.run_thread(impostor);
        r.k.ipc_call(r.client, r.send_slot, 0).unwrap();
        assert_eq!(
            r.k.threads[r.client].state,
            ThreadState::ReplyBlocked(r.server)
        );
        assert_eq!(
            r.k.ipc_reply(impostor, r.client, 0),
            Err(IpcError::NotCallee)
        );
        assert_eq!(r.k.current_thread(0), None, "the client stays blocked");
        r.k.ipc_reply(r.server, r.client, 0).unwrap();
        assert_eq!(r.k.threads[r.server].state, ThreadState::RecvBlocked);
        r.k.ipc_roundtrip(r.client, r.send_slot, r.server).unwrap();
    }

    /// What a refusal may not touch: every core's clock and current
    /// thread, the machine's PMU totals, every thread's state.
    fn observable(k: &Kernel) -> impl PartialEq + std::fmt::Debug {
        let cores: Vec<_> = (0..k.machine.num_cores())
            .map(|c| (k.machine.cpu(c).tsc, k.current_thread(c)))
            .collect();
        let states: Vec<_> = k.threads.iter().map(|t| t.state).collect();
        (cores, k.machine.pmu_total(), states)
    }

    /// The refused step of a case: `Call(client, slot, len)` or
    /// `Reply(server, client, len)`.
    enum Op {
        Call(ThreadId, usize, usize),
        Reply(ThreadId, ThreadId, usize),
    }

    /// Every refusal of `ipc_call` and `ipc_reply` returns its variant
    /// before any charge and leaves every observable as it found it.
    #[test]
    fn refusals_charge_nothing() {
        const TOO_LARGE: usize = layout::MSG_BUF_SIZE + 1;
        // Each case sets its rig up, then names the step to refuse.
        type Case = (&'static str, IpcError, fn(&mut Rig) -> Op);
        let cases: [Case; 7] = [
            ("empty slot", IpcError::NoCapability, |r| {
                Op::Call(r.client, 99, 0)
            }),
            ("recv-only capability", IpcError::NoSendRight, |r| {
                let cp = r.k.threads[r.client].process;
                let slot = r.k.processes[cp].grant(Capability::Endpoint {
                    endpoint: 0,
                    rights: crate::process::CapRights::RECV,
                });
                Op::Call(r.client, slot, 0)
            }),
            ("unbound endpoint", IpcError::NoServer, |r| {
                let sp = r.k.threads[r.server].process;
                let (ep, _) = r.k.create_endpoint(sp);
                let cp = r.k.threads[r.client].process;
                Op::Call(r.client, r.k.grant_send(cp, ep), 0)
            }),
            ("busy server", IpcError::ServerNotReady, |r| {
                let cp = r.k.threads[r.client].process;
                let other = r.k.create_thread(cp, 2);
                r.k.run_thread(other);
                r.k.ipc_call(r.client, r.send_slot, 0).unwrap();
                Op::Call(other, r.send_slot, 0)
            }),
            ("call too large", IpcError::MessageTooLarge, |r| {
                Op::Call(r.client, r.send_slot, TOO_LARGE)
            }),
            ("reply too large", IpcError::MessageTooLarge, |r| {
                r.k.ipc_call(r.client, r.send_slot, 0).unwrap();
                Op::Reply(r.server, r.client, TOO_LARGE)
            }),
            ("impostor reply", IpcError::NotCallee, |r| {
                let ip = r.k.create_process(&[0x90; 64]);
                let impostor = r.k.create_thread(ip, 2);
                r.k.run_thread(impostor);
                r.k.ipc_call(r.client, r.send_slot, 0).unwrap();
                Op::Reply(impostor, r.client, 0)
            }),
        ];
        for personality in Personality::all() {
            for server_core in [0, 1] {
                for (name, want, set_up) in cases {
                    let mut r = rig(personality.clone(), server_core);
                    let op = set_up(&mut r);
                    let before = observable(&r.k);
                    let got = match op {
                        Op::Call(client, slot, len) => r.k.ipc_call(client, slot, len),
                        Op::Reply(server, client, len) => r.k.ipc_reply(server, client, len),
                    };
                    let at = format!("{name} ({}, server core {server_core})", personality.name);
                    assert_eq!(got, Err(want), "{at}");
                    assert_eq!(observable(&r.k), before, "{at}");
                }
            }
        }
    }

    #[test]
    fn kpti_doubles_context_switch_cost() {
        let mut k = Kernel::boot(KernelConfig {
            kpti: true,
            ..KernelConfig::native(Personality::sel4())
        });
        let code = vec![0x90u8; 4096];
        let cp = k.create_process(&code);
        let sp = k.create_process(&code);
        let client = k.create_thread(cp, 0);
        let server = k.create_thread(sp, 0);
        let (ep, _) = k.create_endpoint(sp);
        let slot = k.grant_send(cp, ep);
        k.server_recv(server, ep);
        k.run_thread(client);
        for _ in 0..20 {
            k.ipc_roundtrip(client, slot, server).unwrap();
        }
        let b = k.ipc_roundtrip(client, slot, server).unwrap();
        // 2 switches per one-way = 4 CR3 writes per roundtrip = 744.
        assert_eq!(b.get(Component::ContextSwitch), 4 * 186);
    }

    #[test]
    fn temporary_mapping_halves_long_message_copies() {
        let mut plain = rig(Personality::sel4(), 0);
        let mut tmpmap = rig(Personality::sel4().with_temporary_mapping(), 0);
        let msg = vec![3u8; 2048];
        for r in [&mut plain, &mut tmpmap] {
            r.k.user_write(r.client, r.k.threads[r.client].msg_buf, &msg)
                .unwrap();
            for _ in 0..16 {
                r.k.ipc_call(r.client, r.send_slot, msg.len()).unwrap();
                r.k.ipc_reply(r.server, r.client, 0).unwrap();
            }
        }
        let b_plain = plain
            .k
            .ipc_call(plain.client, plain.send_slot, msg.len())
            .unwrap();
        let b_tmp = tmpmap
            .k
            .ipc_call(tmpmap.client, tmpmap.send_slot, msg.len())
            .unwrap();
        assert!(
            b_tmp.get(Component::MessageCopy) < b_plain.get(Component::MessageCopy),
            "temporary mapping must cut the copy cost: {} vs {}",
            b_tmp.get(Component::MessageCopy),
            b_plain.get(Component::MessageCopy)
        );
        // Bytes still arrive.
        let mut got = vec![0u8; msg.len()];
        let srv = tmpmap.server;
        tmpmap
            .k
            .user_read(srv, tmpmap.k.threads[srv].msg_buf, &mut got)
            .unwrap();
        assert_eq!(got, msg);
        tmpmap.k.ipc_reply(srv, tmpmap.client, 0).unwrap();
        plain.k.ipc_reply(plain.server, plain.client, 0).unwrap();
    }

    #[test]
    fn breakdown_merge_and_scale() {
        let mut a = Breakdown::new();
        a.add(Component::Ipi, 100);
        a.add(Component::Other, 50);
        let mut b = Breakdown::new();
        b.add(Component::Ipi, 100);
        a.merge(&b);
        assert_eq!(a.get(Component::Ipi), 200);
        assert_eq!(a.total(), 250);
        let s = a.scaled_down(2);
        assert_eq!(s.get(Component::Ipi), 100);
        assert_eq!(s.get(Component::Other), 25);
    }
}
