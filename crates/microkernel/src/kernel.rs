//! The kernel facade: boot, processes, threads, context switch, kernel
//! entry.

use sb_mem::{AddressSpace, Gpa, Gva, HostMem, MemFault, PteFlags, PAGE_SIZE};
use sb_rootkernel::{Rootkernel, RootkernelConfig};
use sb_sim::{AccessKind, CpuId, Cycles, Machine, PrivilegeLevel, TlbTag};

use crate::{
    layout,
    personality::Personality,
    process::{
        Capability, Endpoint, EndpointId, Process, ProcessId, Thread, ThreadId, ThreadState,
    },
};

/// Kernel boot configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Which microkernel's IPC behaviour to model.
    pub personality: Personality,
    /// Kernel page-table isolation (Meltdown mitigation). The paper's
    /// baseline IPC numbers disable it; Table 2 quantifies the delta.
    pub kpti: bool,
    /// `Some` boots the SkyBridge Rootkernel underneath the Subkernel
    /// during [`Kernel::boot`] (the self-virtualization of §4.1).
    pub rootkernel: Option<RootkernelConfig>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            personality: Personality::sel4(),
            kpti: false,
            rootkernel: None,
        }
    }
}

impl KernelConfig {
    /// Default configuration with the SkyBridge Rootkernel enabled.
    pub fn with_rootkernel(personality: Personality) -> Self {
        KernelConfig {
            personality,
            rootkernel: Some(RootkernelConfig::default()),
            ..Default::default()
        }
    }

    /// Native (no hypervisor) configuration for a given personality.
    pub fn native(personality: Personality) -> Self {
        KernelConfig {
            personality,
            ..Default::default()
        }
    }
}

/// Bytes of kernel text the boot image reserves (large enough for every
/// personality's footprint).
const KERNEL_TEXT_BYTES: usize = 64 * 1024;

/// Bytes of kernel data (TCBs, endpoints, scheduler queues).
const KERNEL_DATA_BYTES: usize = 256 * 1024;

/// The Subkernel.
#[derive(Debug)]
pub struct Kernel {
    /// The simulated machine.
    pub machine: Machine,
    /// Physical memory.
    pub mem: HostMem,
    /// The SkyBridge hypervisor, if booted.
    pub rootkernel: Option<Rootkernel>,
    /// IPC personality.
    pub personality: Personality,
    /// Whether KPTI is active.
    pub kpti: bool,
    /// Process table.
    pub processes: Vec<Process>,
    /// Thread table.
    pub threads: Vec<Thread>,
    /// Endpoint table.
    pub endpoints: Vec<Endpoint>,
    /// Endpoint objects made so far, by `create_endpoint` and `rebind`.
    endpoint_objects: usize,
    /// Host-physical base of kernel text.
    kernel_text_hpa: u64,
    /// Host-physical base of kernel data.
    kernel_data_hpa: u64,
    /// The kernel's own page table (KPTI switches to it on entry).
    kernel_asp: AddressSpace,
    /// Currently running thread per core.
    current: Vec<Option<ThreadId>>,
    /// GPA of the shared identity page (§4.2).
    pub identity_page: Gpa,
    /// The in-kernel staging buffer a message crosses address spaces in,
    /// reused from one IPC to the next.
    pub(crate) msg_staging: Vec<u8>,
}

impl Kernel {
    /// Boots the Subkernel (and, if configured, the Rootkernel underneath
    /// it — the Subkernel "has one line of code to call the
    /// self-virtualization module", §3.2).
    pub fn boot(config: KernelConfig) -> Self {
        let mut machine = Machine::skylake();
        let mut mem = HostMem::new();
        let kernel_asp = AddressSpace::new(&mut mem, 0);
        // Kernel image: contiguous frames from the bump allocator.
        let text = alloc_region(&mut mem, KERNEL_TEXT_BYTES);
        let data = alloc_region(&mut mem, KERNEL_DATA_BYTES);
        let identity_frame = mem.alloc_frame();
        let rootkernel = config
            .rootkernel
            .map(|rc| Rootkernel::boot(&mut machine, &mut mem, rc));
        let cores = machine.num_cores();
        Kernel {
            machine,
            mem,
            rootkernel,
            personality: config.personality,
            kpti: config.kpti,
            processes: Vec::new(),
            threads: Vec::new(),
            endpoints: Vec::new(),
            endpoint_objects: 0,
            kernel_text_hpa: text,
            kernel_data_hpa: data,
            kernel_asp,
            current: vec![None; cores],
            identity_page: Gpa(identity_frame.0),
            msg_staging: Vec::new(),
        }
    }

    /// Creates a process and loads `code` at [`layout::CODE_BASE`].
    ///
    /// The code region is mapped writable during the load, then flipped to
    /// W^X user-executable — the same flow a SkyBridge rescan relies on
    /// (§9).
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds [`layout::CODE_MAX`].
    pub fn create_process(&mut self, code: &[u8]) -> ProcessId {
        assert!(code.len() <= layout::CODE_MAX, "code image too large");
        let id = self.processes.len();
        let pcid = (id + 1) as u16;
        let asp = AddressSpace::new(&mut self.mem, pcid);
        let code_pages = code.len().div_ceil(PAGE_SIZE as usize).max(1);
        asp.alloc_and_map(
            &mut self.mem,
            layout::CODE_BASE,
            code_pages,
            PteFlags::USER_DATA,
        );
        // Load the image page by page through setup translation.
        for (i, chunk) in code.chunks(PAGE_SIZE as usize).enumerate() {
            let gva = layout::CODE_BASE.add(i as u64 * PAGE_SIZE);
            let (gpa, _) = asp.translate_setup(&self.mem, gva).unwrap();
            self.mem.write_slice(sb_mem::Hpa(gpa.0), chunk);
        }
        for i in 0..code_pages {
            asp.protect(
                &mut self.mem,
                layout::CODE_BASE.add(i as u64 * PAGE_SIZE),
                PteFlags::USER_CODE,
            );
        }
        // A default heap.
        asp.alloc_and_map(&mut self.mem, layout::HEAP_BASE, 16, PteFlags::USER_DATA);
        // The identity page, at the same GVA (and GPA) in every process.
        asp.map(
            &mut self.mem,
            layout::IDENTITY_PAGE,
            self.identity_page,
            PteFlags::USER_DATA,
        );
        self.processes.push(Process {
            id,
            asp,
            threads: Vec::new(),
            caps: Vec::new(),
            code_len: code.len(),
            eptp_list: None,
            own_ept: None,
        });
        id
    }

    /// Extends a process's heap by `pages`, returning the base GVA of the
    /// new region.
    pub fn map_heap(&mut self, pid: ProcessId, at: Gva, pages: usize) {
        let asp = self.processes[pid].asp;
        asp.alloc_and_map(&mut self.mem, at, pages, PteFlags::USER_DATA);
    }

    /// [`Kernel::map_heap`] with the pages tagged by a 4-bit protection
    /// key, so a PKRU value can later grant or deny the region as a unit
    /// — the MPK personality's way of carving domains out of a single
    /// address space.
    pub fn map_heap_keyed(&mut self, pid: ProcessId, at: Gva, pages: usize, pkey: u8) {
        let asp = self.processes[pid].asp;
        asp.alloc_and_map(
            &mut self.mem,
            at,
            pages,
            PteFlags::USER_DATA.with_pkey(pkey),
        );
    }

    /// Executes `WRPKRU` on `core`: loads `pkru` into the core's rights
    /// register and charges the instruction's cost. This is a *user-mode*
    /// instruction — no mode switch, no CR3 write, no TLB shootdown —
    /// which is the entire reason the MPK crossing is cheap.
    pub fn wrpkru(&mut self, core: CpuId, pkru: u32) {
        let cost = self.machine.cost.wrpkru;
        let cpu = self.machine.cpu_mut(core);
        cpu.write_pkru(pkru);
        cpu.advance(cost);
    }

    /// Creates a thread in `pid` pinned to `core`.
    pub fn create_thread(&mut self, pid: ProcessId, core: CpuId) -> ThreadId {
        let tid = self.threads.len();
        let asp = self.processes[pid].asp;
        let stack_top = Gva(layout::STACK_TOP.0 - (tid as u64) * layout::STACK_SIZE as u64);
        let stack_pages = layout::STACK_SIZE / PAGE_SIZE as usize;
        asp.alloc_and_map(
            &mut self.mem,
            Gva(stack_top.0 - layout::STACK_SIZE as u64),
            stack_pages,
            PteFlags::USER_DATA,
        );
        let msg_buf = layout::MSG_BUF_BASE.add(tid as u64 * PAGE_SIZE);
        asp.alloc_and_map(&mut self.mem, msg_buf, 1, PteFlags::USER_DATA);
        self.threads.push(Thread {
            id: tid,
            process: pid,
            core,
            state: ThreadState::Ready,
            stack_top,
            msg_buf,
        });
        self.processes[pid].threads.push(tid);
        tid
    }

    /// Creates an endpoint owned (served) by `pid`, granting it a receive
    /// capability, and returns `(endpoint, recv cap slot)`.
    pub fn create_endpoint(&mut self, pid: ProcessId) -> (EndpointId, usize) {
        let id = self.endpoints.len();
        let object = self.new_endpoint_object();
        self.endpoints.push(Endpoint {
            id,
            owner: pid,
            server: None,
            object,
        });
        let slot = self.processes[pid].grant(Capability::Endpoint {
            endpoint: id,
            rights: crate::process::CapRights::RECV,
        });
        (id, slot)
    }

    /// Grants `pid` a send capability to `endpoint`, returning the slot.
    pub fn grant_send(&mut self, pid: ProcessId, endpoint: EndpointId) -> usize {
        self.processes[pid].grant(Capability::Endpoint {
            endpoint,
            rights: crate::process::CapRights::SEND,
        })
    }

    fn new_endpoint_object(&mut self) -> usize {
        self.endpoint_objects += 1;
        self.endpoint_objects - 1
    }

    /// Binds `tid`, a respawned server, to `endpoint` on a fresh kernel
    /// object, retiring the dead server's with it. The table slot and
    /// every capability naming it stay, so a supervisor restart grows no
    /// table.
    pub fn rebind(&mut self, tid: ThreadId, endpoint: EndpointId) {
        self.endpoints[endpoint].object = self.new_endpoint_object();
        self.server_recv(tid, endpoint);
    }

    /// Marks `tid` as blocked receiving on `endpoint` (the server loop's
    /// `recv()`).
    pub fn server_recv(&mut self, tid: ThreadId, endpoint: EndpointId) {
        self.endpoints[endpoint].server = Some(tid);
        self.threads[tid].state = ThreadState::RecvBlocked;
        let core = self.threads[tid].core;
        if self.current[core] == Some(tid) {
            self.current[core] = None;
        }
    }

    /// The thread currently running on `core`.
    pub fn current_thread(&self, core: CpuId) -> Option<ThreadId> {
        self.current[core]
    }

    /// Sets the current thread of `core` (IPC control transfer).
    pub(crate) fn current_set(&mut self, core: CpuId, tid: Option<ThreadId>) {
        self.current[core] = tid;
    }

    /// Host-physical base of the kernel data region (channel buffers use
    /// its upper half).
    pub(crate) fn kernel_data_region(&self) -> u64 {
        self.kernel_data_hpa
    }

    /// Context-switches `core` to `tid`: switches to its address space
    /// (CR3 load, charged; identity recorded) and installs its EPTP list
    /// if it registered with SkyBridge.
    pub fn run_thread(&mut self, tid: ThreadId) {
        let (core, pid) = (self.threads[tid].core, self.threads[tid].process);
        if self.current[core] != Some(tid) {
            self.switch_address_space(core, pid);
            if let (Some(rk), Some(list)) = (
                self.rootkernel.as_mut(),
                self.processes[pid].eptp_list.clone(),
            ) {
                rk.install_eptp_list(&mut self.machine, core, list);
                // Slot 0 of every list is the process's own EPT.
                rk.vmfunc(&mut self.machine, core, 0, 0)
                    .expect("slot 0 is always pinned");
            }
        }
        self.machine.cpu_mut(core).priv_level = PrivilegeLevel::User;
        self.current[core] = Some(tid);
        self.threads[tid].state = ThreadState::Ready;
    }

    /// Kills `tid` (handler panic, security violation): the thread leaves
    /// the scheduler's view and any core it was current on goes idle. Its
    /// TCB and address space survive so a supervisor can revive it.
    pub fn kill_thread(&mut self, tid: ThreadId) {
        self.threads[tid].state = ThreadState::Dead;
        let core = self.threads[tid].core;
        if self.current[core] == Some(tid) {
            self.current[core] = None;
        }
    }

    /// Revives a dead thread (supervisor restart after a crash): the TCB
    /// is reset to `Ready` so it can be scheduled again.
    pub fn revive_thread(&mut self, tid: ThreadId) {
        if self.threads[tid].state == ThreadState::Dead {
            self.threads[tid].state = ThreadState::Ready;
        }
    }

    /// Writes "core is running `pid`" into the identity page.
    pub fn identity_record(&mut self, core: CpuId, pid: ProcessId) {
        let at = sb_mem::Hpa(self.identity_page.0 + core as u64 * 8);
        self.mem.write_u64(at, pid as u64 + 1);
    }

    /// Kernel-side identity lookup (§4.2): which process does `core`
    /// currently execute, *according to the identity page* — correct even
    /// when a SkyBridge call has switched address spaces underneath an
    /// unchanged CR3.
    pub fn identity_current(&mut self, core: CpuId) -> Option<ProcessId> {
        let at = sb_mem::Hpa(self.identity_page.0 + core as u64 * 8);
        self.machine.mem_access(core, at.0, AccessKind::DataRead);
        let v = self.mem.read_u64(at);
        (v != 0).then(|| (v - 1) as ProcessId)
    }

    /// Charges one user→kernel→user mode-switch (SYSCALL + 2×SWAPGS +
    /// SYSRET) plus KPTI CR3 writes, returning `(mode_cycles,
    /// kpti_cycles)` for breakdown attribution.
    pub(crate) fn mode_switch(&mut self, core: CpuId) -> (Cycles, Cycles) {
        let (mode_cycles, cr3_write) =
            (self.machine.cost.mode_switch(), self.machine.cost.cr3_write);
        let cpu = self.machine.cpu_mut(core);
        cpu.pmu.mode_switches += 1;
        cpu.advance(mode_cycles);
        let mut kpti_cycles = 0;
        if self.kpti {
            // Entry: switch to the kernel-half page table. KPTI keeps two
            // tables per process — the trimmed user half, and a kernel
            // half that maps the kernel *plus* the process's user pages
            // (the kernel must still reach message buffers to copy them).
            // We model the kernel half as the process's own root under
            // the kernel PCID 0, so TLB entries filled in kernel mode are
            // tagged apart from user-mode ones. The matching exit write
            // happens when the kernel switches to the target process
            // (`switch_address_space`) or restores the caller
            // (`kernel_exit`) — "an IPC usually involves two address space
            // switches" (§2.1.1).
            let kernel_cr3 = match self.current[core] {
                Some(tid) => self.processes[self.threads[tid].process].cr3().0,
                None => self.kernel_asp.root_gpa.0,
            };
            let cpu = self.machine.cpu_mut(core);
            cpu.load_cr3(kernel_cr3, 0);
            cpu.advance(cr3_write);
            kpti_cycles += cr3_write;
        }
        (mode_cycles, kpti_cycles)
    }

    /// Returns to user mode in the same process (non-IPC syscall exit):
    /// under KPTI this reloads the caller's page table.
    pub(crate) fn kernel_exit(&mut self, core: CpuId) -> Cycles {
        match self.current[core] {
            Some(tid) if self.kpti => self.load_cr3(core, self.threads[tid].process),
            _ => 0,
        }
    }

    /// Fetches kernel text and touches kernel data through the cache
    /// hierarchy and TLBs — the *indirect* cost of entering the kernel
    /// (§2.1.2). `data_seed` scatters data touches so different kernel
    /// objects (endpoints, TCBs) hit different lines.
    pub(crate) fn kernel_work_seeded(
        &mut self,
        core: CpuId,
        text_bytes: usize,
        data_bytes: usize,
        data_seed: usize,
    ) {
        // One run of lines through the caches, then one TLB step per
        // page of the run: caches and TLBs share no state and a TLB step
        // does not advance the clock, so the order between them is free.
        let text = text_bytes.min(KERNEL_TEXT_BYTES);
        self.machine.mem_access_span(
            core,
            self.kernel_text_hpa,
            text.div_ceil(64),
            AccessKind::InstructionFetch,
        );
        for off in (0..text).step_by(PAGE_SIZE as usize) {
            self.kernel_tlb_touch(core, true, off);
        }
        // Clamped to the region: lines past it are someone else's.
        let base = (data_seed * 4096) % (KERNEL_DATA_BYTES / 2);
        let data = data_bytes.min(KERNEL_DATA_BYTES - base);
        self.machine.mem_access_span(
            core,
            self.kernel_data_hpa + base as u64,
            data.div_ceil(64),
            AccessKind::DataRead,
        );
        for off in (base..base + data).step_by(PAGE_SIZE as usize) {
            self.kernel_tlb_touch(core, false, off);
        }
        // Scattered kernel structures: one line in each of `data_pages`
        // distinct pages (TCBs, capability tables, kernel stacks). This
        // is the kernel-side TLB pressure of §2.1.2.
        let pages = self.personality.data_pages;
        for p in 0..pages {
            let page_off = ((data_seed + 7) * 8 + p) * PAGE_SIZE as usize
                % KERNEL_DATA_BYTES
                // Structures sit at varied offsets within their pages (and
                // so in varied cache sets).
                + (p * 192) % PAGE_SIZE as usize;
            let hpa = self.kernel_data_hpa + page_off as u64;
            self.machine.mem_access(core, hpa, AccessKind::DataRead);
            self.kernel_tlb_touch(core, false, page_off);
        }
    }

    /// Looks the kernel page at byte `off` of the text or data region up
    /// in the i- or d-TLB, refilling it on a miss. Kernel mappings are
    /// linear, so the frame follows from the offset.
    fn kernel_tlb_touch(&mut self, core: CpuId, text: bool, off: usize) {
        let tag = self.kernel_tag(core);
        let (region, vpn_base) = if text {
            (self.kernel_text_hpa, layout::KERNEL_TEXT_VPN_BASE)
        } else {
            (self.kernel_data_hpa, layout::KERNEL_DATA_VPN_BASE)
        };
        let (vpn, ppn) = (vpn_base + (off as u64 >> 12), (region + off as u64) >> 12);
        let cpu = self.machine.cpu_mut(core);
        let (tlb, misses) = if text {
            (&mut cpu.itlb, &mut cpu.pmu.itlb_misses)
        } else {
            (&mut cpu.dtlb, &mut cpu.pmu.dtlb_misses)
        };
        if tlb.lookup(tag, vpn).is_none() {
            *misses += 1;
            tlb.insert(tag, vpn, ppn, 0);
        }
    }

    fn kernel_tag(&self, core: CpuId) -> TlbTag {
        // Kernel mappings are *global* pages (the G bit exempts them from
        // PCID tagging), so one TLB entry serves every process; under
        // KPTI they live in the kernel's own PCID-0 address space — the
        // same tag either way.
        let cpu = self.machine.cpu(core);
        TlbTag {
            pcid: 0,
            ept_root: cpu.ept_root,
        }
    }

    /// Direct in-kernel address-space switch to `pid` (the fastpath's
    /// "direct process switch"), charging one CR3 write.
    pub(crate) fn switch_address_space(&mut self, core: CpuId, pid: ProcessId) {
        self.load_cr3(core, pid);
        if let Some(rk) = self.rootkernel.as_mut() {
            rk.cr3_write(&mut self.machine, core);
        }
        self.identity_record(core, pid);
    }

    /// Loads `pid`'s page table into `core`'s CR3 under its PCID,
    /// charging (and returning) one CR3 write — the one place a process's
    /// CR3 is loaded.
    fn load_cr3(&mut self, core: CpuId, pid: ProcessId) -> Cycles {
        let asp = self.processes[pid].asp;
        let cost = self.machine.cost.cr3_write;
        let cpu = self.machine.cpu_mut(core);
        cpu.load_cr3(asp.root_gpa.0, asp.pcid);
        cpu.advance(cost);
        cost
    }

    // ----- user-level execution API (used by the scenario drivers) -----

    /// Reads user memory on behalf of the thread currently running on its
    /// core.
    pub fn user_read(&mut self, tid: ThreadId, gva: Gva, buf: &mut [u8]) -> Result<(), MemFault> {
        let core = self.require_current(tid);
        sb_mem::walk::read_bytes(&mut self.machine, core, &self.mem, gva, buf, true)
    }

    /// Writes user memory on behalf of the current thread.
    pub fn user_write(&mut self, tid: ThreadId, gva: Gva, data: &[u8]) -> Result<(), MemFault> {
        let core = self.require_current(tid);
        sb_mem::walk::write_bytes(&mut self.machine, core, &mut self.mem, gva, data, true)
    }

    /// Charges user-memory traffic for the current thread — the same
    /// translation and cache accounting as [`Kernel::user_read`] /
    /// [`Kernel::user_write`] — without moving host bytes. The zero-copy
    /// transport path uses this when the payload is already staged
    /// host-side.
    pub fn user_touch(
        &mut self,
        tid: ThreadId,
        gva: Gva,
        len: usize,
        access: sb_mem::walk::Access,
    ) -> Result<(), MemFault> {
        let core = self.require_current(tid);
        sb_mem::walk::touch_bytes(&mut self.machine, core, &self.mem, gva, len, access, true)
    }

    /// Models the current thread executing `len` bytes of code at `gva`
    /// (instruction fetches through i-TLB and L1i).
    pub fn user_exec(&mut self, tid: ThreadId, gva: Gva, len: usize) -> Result<(), MemFault> {
        let core = self.require_current(tid);
        sb_mem::walk::fetch_code(&mut self.machine, core, &self.mem, gva, len, true)
    }

    /// Pure compute: advances the thread's core by `cycles`.
    pub fn compute(&mut self, tid: ThreadId, cycles: Cycles) {
        let core = self.threads[tid].core;
        self.machine.cpu_mut(core).advance(cycles);
    }

    /// The core a thread is pinned to.
    pub fn core_of(&self, tid: ThreadId) -> CpuId {
        self.threads[tid].core
    }

    fn require_current(&self, tid: ThreadId) -> CpuId {
        let core = self.threads[tid].core;
        assert_eq!(
            self.current[core],
            Some(tid),
            "thread {tid} is not current on core {core}; call run_thread"
        );
        core
    }

    /// Executes a no-op system call on behalf of the current thread of
    /// `core`: full mode switch, trivial dispatch, KPTI page-table swap
    /// and restore (the Table 2 "no-op system call" rows).
    pub fn noop_syscall(&mut self, core: CpuId) -> Cycles {
        let t0 = self.machine.cpu(core).tsc;
        let (_m, _k) = self.mode_switch(core);
        self.machine.cpu_mut(core).advance(24); // Dispatch table walk.
        self.kernel_exit(core);
        self.machine.cpu(core).tsc - t0
    }
}

/// Allocates `bytes` of physically contiguous memory (bump allocator), and
/// returns the base HPA.
fn alloc_region(mem: &mut HostMem, bytes: usize) -> u64 {
    let frames = bytes.div_ceil(PAGE_SIZE as usize);
    let base = mem.alloc_frame();
    for i in 1..frames {
        let f = mem.alloc_frame();
        debug_assert_eq!(f.0, base.0 + i as u64 * PAGE_SIZE);
    }
    base.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_code() -> Vec<u8> {
        vec![0x90; 4096] // One page of NOPs.
    }

    #[test]
    fn boot_native_has_no_rootkernel() {
        let k = Kernel::boot(KernelConfig::default());
        assert!(k.rootkernel.is_none());
        assert_eq!(k.machine.num_cores(), 8);
    }

    #[test]
    fn boot_with_rootkernel_runs_non_root() {
        let k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
        let rk = k.rootkernel.as_ref().unwrap();
        assert_eq!(k.machine.cpu(0).ept_root, rk.base_ept.root.0);
    }

    #[test]
    fn create_process_loads_code_wx() {
        let mut k = Kernel::boot(KernelConfig::default());
        let code: Vec<u8> = (0..5000).map(|i| (i % 200) as u8).collect();
        let pid = k.create_process(&code);
        let asp = k.processes[pid].asp;
        let (_, flags) = asp.translate_setup(&k.mem, layout::CODE_BASE).unwrap();
        assert!(flags.exec && !flags.write, "code must be W^X");
        // Contents are loaded.
        let (gpa, _) = asp
            .translate_setup(&k.mem, layout::CODE_BASE.add(4096))
            .unwrap();
        let mut b = [0u8; 8];
        k.mem.read_slice(sb_mem::Hpa(gpa.0), &mut b);
        assert_eq!(b[0], (4096 % 200) as u8);
    }

    #[test]
    fn threads_get_disjoint_stacks_and_msg_bufs() {
        let mut k = Kernel::boot(KernelConfig::default());
        let pid = k.create_process(&small_code());
        let t0 = k.create_thread(pid, 0);
        let t1 = k.create_thread(pid, 1);
        assert_ne!(k.threads[t0].stack_top, k.threads[t1].stack_top);
        assert_ne!(k.threads[t0].msg_buf, k.threads[t1].msg_buf);
    }

    #[test]
    fn run_thread_switches_cr3_and_identity() {
        let mut k = Kernel::boot(KernelConfig::default());
        let pa = k.create_process(&small_code());
        let pb = k.create_process(&small_code());
        let ta = k.create_thread(pa, 0);
        let tb = k.create_thread(pb, 0);
        k.run_thread(ta);
        assert_eq!(k.machine.cpu(0).cr3, k.processes[pa].cr3().0);
        assert_eq!(k.identity_current(0), Some(pa));
        k.run_thread(tb);
        assert_eq!(k.machine.cpu(0).cr3, k.processes[pb].cr3().0);
        assert_eq!(k.identity_current(0), Some(pb));
    }

    #[test]
    fn user_memory_roundtrip() {
        let mut k = Kernel::boot(KernelConfig::default());
        let pid = k.create_process(&small_code());
        let tid = k.create_thread(pid, 0);
        k.run_thread(tid);
        k.user_write(tid, layout::HEAP_BASE, b"hello skybridge")
            .unwrap();
        let mut buf = [0u8; 15];
        k.user_read(tid, layout::HEAP_BASE, &mut buf).unwrap();
        assert_eq!(&buf, b"hello skybridge");
    }

    #[test]
    fn user_cannot_touch_other_process_heap_contents() {
        let mut k = Kernel::boot(KernelConfig::default());
        let pa = k.create_process(&small_code());
        let pb = k.create_process(&small_code());
        let ta = k.create_thread(pa, 0);
        let tb = k.create_thread(pb, 0);
        k.run_thread(ta);
        k.user_write(ta, layout::HEAP_BASE, b"secret-a").unwrap();
        k.run_thread(tb);
        let mut buf = [0u8; 8];
        k.user_read(tb, layout::HEAP_BASE, &mut buf).unwrap();
        assert_ne!(&buf, b"secret-a", "address spaces must be disjoint");
    }

    #[test]
    fn keyed_heap_is_gated_by_pkru() {
        let mut k = Kernel::boot(KernelConfig::default());
        let pid = k.create_process(&small_code());
        let tid = k.create_thread(pid, 0);
        k.map_heap_keyed(pid, Gva(0x5100_0000), 1, 6);
        k.run_thread(tid);
        // Reset PKRU: the keyed region is reachable.
        k.user_write(tid, Gva(0x5100_0000), b"keyed").unwrap();
        // Deny key 6: the same touch now takes a pkey fault, and the
        // un-keyed msg_buf stays reachable (key 0 is never denied here).
        let t0 = k.machine.cpu(0).tsc;
        k.wrpkru(0, 0b11 << 12);
        assert_eq!(k.machine.cpu(0).tsc - t0, k.machine.cost.wrpkru);
        let err = k.user_write(tid, Gva(0x5100_0000), b"nope").unwrap_err();
        assert!(matches!(err, MemFault::PkeyDenied { key: 6, .. }));
        let msg_buf = k.threads[tid].msg_buf;
        k.user_write(tid, msg_buf, b"fine").unwrap();
        // Restore: rights come back with one more WRPKRU.
        k.wrpkru(0, 0);
        k.user_write(tid, Gva(0x5100_0000), b"back").unwrap();
        assert_eq!(k.machine.cpu(0).pmu.wrpkru_writes, 2);
    }

    #[test]
    fn kpti_costs_extra_cr3_writes() {
        let mut with = Kernel::boot(KernelConfig {
            kpti: true,
            ..KernelConfig::default()
        });
        let mut without = Kernel::boot(KernelConfig::default());
        let a0 = with.machine.cpu(0).pmu.cr3_writes;
        let b0 = without.machine.cpu(0).pmu.cr3_writes;
        with.mode_switch(0);
        without.mode_switch(0);
        assert_eq!(with.machine.cpu(0).pmu.cr3_writes - a0, 1);
        assert_eq!(without.machine.cpu(0).pmu.cr3_writes - b0, 0);
    }

    #[test]
    fn kernel_work_pollutes_icache() {
        let mut k = Kernel::boot(KernelConfig::default());
        let before = k.machine.cpu(0).pmu;
        k.kernel_work_seeded(0, 16384, 2048, 0);
        let d = k.machine.cpu(0).pmu.delta(&before);
        assert!(d.l1i_misses >= 16384 / 64);
        assert!(d.l1d_misses >= 2048 / 64);
        // Second pass is warm.
        let before = k.machine.cpu(0).pmu;
        k.kernel_work_seeded(0, 16384, 2048, 0);
        let d = k.machine.cpu(0).pmu.delta(&before);
        assert_eq!(d.l1i_misses, 0);
    }

    /// A personality whose footprints exceed the kernel image is billed
    /// the image, not whatever `alloc_region` handed out after it: no
    /// panic, the text run stops at the last text line, and no data run
    /// — from any seed — reaches the line after the data region.
    #[test]
    fn footprints_larger_than_the_kernel_image_stay_inside_it() {
        for (personality, server_core) in Personality::all().into_iter().zip([0, 1, 0]) {
            let mut k = Kernel::boot(KernelConfig::native(Personality {
                text_fast: usize::MAX,
                text_slow: usize::MAX,
                data_touch: usize::MAX,
                data_pages: 10_000,
                ..personality
            }));
            let cp = k.create_process(&small_code());
            let sp = k.create_process(&small_code());
            // Thirty idle threads and endpoints first: the data run
            // starts one page further in for each.
            for _ in 0..30 {
                k.create_thread(cp, 2);
                k.create_endpoint(sp);
            }
            let client = k.create_thread(cp, 0);
            let server = k.create_thread(sp, server_core);
            let (ep, _) = k.create_endpoint(sp);
            let send_slot = k.grant_send(cp, ep);
            k.server_recv(server, ep);
            k.run_thread(client);
            for _ in 0..3 {
                k.ipc_roundtrip(client, send_slot, server).unwrap();
            }
            // A zero seed runs the data footprint from the region's
            // start to its last line.
            k.kernel_work_seeded(0, 0, usize::MAX, 0);
            let past_text = k.kernel_text_hpa + KERNEL_TEXT_BYTES as u64;
            let past_data = k.kernel_data_hpa + KERNEL_DATA_BYTES as u64;
            for cpu in &k.machine.cores {
                // (The line after the text *is* the first data line, so
                // the data caches may hold it; only a fetch is a leak.)
                assert!(cpu.l1i.accesses == 0 || cpu.l1i.probe(past_text - 64));
                assert!(!cpu.l1i.probe(past_text), "core {}", cpu.id);
                assert!(!cpu.l1d.probe(past_data), "core {}", cpu.id);
                assert!(!cpu.l2.probe(past_data), "core {}", cpu.id);
            }
            assert!(!k.machine.l3.probe(past_data));
            assert!(
                k.machine.l3.probe(past_data - 64),
                "the run ends on the last data line"
            );
        }
    }
}
