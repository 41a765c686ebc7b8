//! The Rootkernel proper: boot, hypercalls, exits, and `VMFUNC`.

use std::collections::HashMap;

use sb_mem::{
    addr::PAGE_SIZE_1G,
    ept::{Ept, EptPerms, PageSize},
    phys::{HostMem, RESERVED_BYTES},
    Gpa, Hpa, PAGE_SIZE,
};
use sb_sim::{CpuId, CpuMode, Cycles, Machine};

use crate::{
    eptp::EptpList,
    exit::{ExitReason, ExitStats},
    vmcs::{ExitControls, Vmcs},
};

/// How the Rootkernel is configured at boot.
#[derive(Debug, Clone)]
pub struct RootkernelConfig {
    /// Exit controls (default: SkyBridge's exitless pass-through).
    pub controls: ExitControls,
}

impl Default for RootkernelConfig {
    fn default() -> Self {
        RootkernelConfig {
            controls: ExitControls::skybridge(),
        }
    }
}

/// Top of guest-visible physical memory: the base EPT identity-maps
/// everything below it.
const MEM_TOP: u64 = 4 * PAGE_SIZE_1G;

/// Errors of the `VMFUNC` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmfuncError {
    /// Executed outside non-root mode (#UD on real hardware).
    NotInNonRootMode,
    /// A leaf other than 0 (EPTP switching) was requested.
    InvalidLeaf,
    /// The EPTP index is out of range or its slot is empty; on hardware
    /// this is a VM exit the Rootkernel turns into a fault against the
    /// caller (or a reinstall, for LRU-evicted slots).
    InvalidIndex,
}

impl std::fmt::Display for VmfuncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmfuncError::NotInNonRootMode => {
                write!(f, "VMFUNC outside non-root mode (#UD)")
            }
            VmfuncError::InvalidLeaf => write!(f, "unsupported VMFUNC leaf"),
            VmfuncError::InvalidIndex => {
                write!(f, "EPTP index out of range or empty")
            }
        }
    }
}

impl std::error::Error for VmfuncError {}

/// The tiny hypervisor.
#[derive(Debug)]
pub struct Rootkernel {
    /// The huge-page identity EPT the Subkernel runs under.
    pub base_ept: Ept,
    /// Per-core VMCS.
    pub vmcs: Vec<Vmcs>,
    /// Exit counters (Table 5).
    pub exits: ExitStats,
    /// Per-client process EPTs (unmodified shallow root copies of the base
    /// EPT), keyed by the process's CR3 GPA.
    process_epts: HashMap<u64, Hpa>,
    /// Per-binding server EPTs, keyed by `(client CR3, server CR3)`.
    binding_epts: HashMap<(u64, u64), Hpa>,
    /// Total EPT pages the shallow copies wrote (4 per binding).
    pub ept_pages_written: u64,
}

/// Cycles charged to the booting core for the self-virtualization sequence
/// (VMXON, VMCS setup, EPT construction kick-off). One-time cost.
const BOOT_CYCLES: Cycles = 150_000;

impl Rootkernel {
    /// Self-virtualization (§4.1): called *by the Subkernel* during its own
    /// boot. Builds the base EPT — 2 MiB identity pages between the
    /// reserved region and 1 GiB, 1 GiB identity pages from there to
    /// 4 GiB — and demotes every core to non-root mode under it.
    pub fn boot(machine: &mut Machine, mem: &mut HostMem, config: RootkernelConfig) -> Self {
        let base_ept = Ept::new(mem);
        base_ept.map_identity_range(
            mem,
            RESERVED_BYTES,
            PAGE_SIZE_1G,
            PageSize::Size2M,
            EptPerms::RWX,
        );
        base_ept.map_identity_range(mem, PAGE_SIZE_1G, MEM_TOP, PageSize::Size1G, EptPerms::RWX);
        let vmcs = (0..machine.num_cores())
            .map(|_| Vmcs::new(base_ept.root, config.controls))
            .collect();
        for core in 0..machine.num_cores() {
            let cpu = machine.cpu_mut(core);
            cpu.mode = CpuMode::NonRoot;
            cpu.load_eptp(base_ept.root.0);
        }
        machine.cpu_mut(0).advance(BOOT_CYCLES);
        Rootkernel {
            base_ept,
            vmcs,
            exits: ExitStats::default(),
            process_epts: HashMap::new(),
            binding_epts: HashMap::new(),
            ept_pages_written: 0,
        }
    }

    /// Records a VM exit and charges the world-switch cost.
    fn take_exit(&mut self, machine: &mut Machine, core: CpuId, reason: ExitReason) {
        self.exits.record(reason);
        let cost = machine.cost.vm_exit;
        let cpu = machine.cpu_mut(core);
        cpu.pmu.vm_exits += 1;
        cpu.advance(cost);
    }

    /// `VMCALL`: returns (after charging the exit) so the caller can invoke
    /// a specific management operation below. All Subkernel→Rootkernel
    /// communication goes through this.
    pub fn vmcall(&mut self, machine: &mut Machine, core: CpuId) {
        self.take_exit(machine, core, ExitReason::Vmcall);
    }

    /// An external interrupt arrived on `core`.
    ///
    /// Returns `true` if it caused a VM exit (commercial configuration);
    /// with SkyBridge's pass-through controls it is injected directly into
    /// the Subkernel and costs nothing extra.
    pub fn external_interrupt(&mut self, machine: &mut Machine, core: CpuId) -> bool {
        if self.vmcs[core].controls.passthrough_interrupts {
            false
        } else {
            self.take_exit(machine, core, ExitReason::ExternalInterrupt);
            true
        }
    }

    /// A CR3 write executed on `core`. Pass-through under SkyBridge.
    pub fn cr3_write(&mut self, machine: &mut Machine, core: CpuId) -> bool {
        if self.vmcs[core].controls.passthrough_cr3 {
            false
        } else {
            self.take_exit(machine, core, ExitReason::PrivilegedInstruction);
            true
        }
    }

    /// Hypercall: obtain (creating if needed) the process EPT for a client
    /// — an unmodified shallow copy of the base EPT ("EPT-C" in Fig. 6).
    pub fn process_ept(
        &mut self,
        machine: &mut Machine,
        core: CpuId,
        mem: &mut HostMem,
        client_cr3: Gpa,
    ) -> Hpa {
        self.vmcall(machine, core);
        if let Some(&root) = self.process_epts.get(&client_cr3.0) {
            return root;
        }
        let root = clone_root(mem, self.base_ept.root);
        self.ept_pages_written += 1;
        self.process_epts.insert(client_cr3.0, root);
        root
    }

    /// Hypercall: bind a client to a server (§4.2/§4.3) — create "EPT-S",
    /// the shallow copy of the base EPT in which the GPA of the client's
    /// CR3 frame translates to the HPA of the server's page-table root.
    ///
    /// Idempotent per `(client, server)` pair.
    pub fn bind(
        &mut self,
        machine: &mut Machine,
        core: CpuId,
        mem: &mut HostMem,
        client_cr3: Gpa,
        server_cr3: Gpa,
    ) -> Hpa {
        self.vmcall(machine, core);
        let key = (client_cr3.0, server_cr3.0);
        if let Some(&root) = self.binding_epts.get(&key) {
            return root;
        }
        let (ept, pages) = Ept::shallow_copy_with_remap(
            mem,
            &self.base_ept,
            client_cr3,
            // The server's page-table pages live in identity-mapped general
            // memory, so the HPA of its root equals the CR3 GPA.
            Hpa(server_cr3.0),
        );
        self.ept_pages_written += pages;
        self.binding_epts.insert(key, ept.root);
        ept.root
    }

    /// Hypercall: install `list` as `core`'s EPTP list (called by the
    /// Subkernel's context-switch hook before scheduling a process).
    pub fn install_eptp_list(&mut self, machine: &mut Machine, core: CpuId, list: EptpList) {
        self.vmcall(machine, core);
        self.vmcs[core].eptp_list = list;
    }

    /// Executes `VMFUNC(leaf, index)` on `core` — the entire hypervisor
    /// involvement in a SkyBridge IPC.
    ///
    /// On success: the active EPTP becomes `eptp_list[index]`, 134 cycles,
    /// no TLB flush, **no VM exit**. Error cases exit to the Rootkernel,
    /// which records the fault and lets the Subkernel kill the offender.
    pub fn vmfunc(
        &mut self,
        machine: &mut Machine,
        core: CpuId,
        leaf: u64,
        index: usize,
    ) -> Result<(), VmfuncError> {
        if machine.cpu(core).mode != CpuMode::NonRoot {
            return Err(VmfuncError::NotInNonRootMode);
        }
        let vmfunc_cost = machine.cost.vmfunc;
        {
            let cpu = machine.cpu_mut(core);
            cpu.pmu.vmfuncs += 1;
            cpu.advance(vmfunc_cost);
        }
        if leaf != 0 {
            self.take_exit(machine, core, ExitReason::VmfuncFault);
            return Err(VmfuncError::InvalidLeaf);
        }
        let Some(root) = self.vmcs[core].eptp_list.get(index) else {
            self.take_exit(machine, core, ExitReason::VmfuncFault);
            return Err(VmfuncError::InvalidIndex);
        };
        self.vmcs[core].eptp = root;
        machine.cpu_mut(core).load_eptp(root.0);
        Ok(())
    }

    /// Number of distinct binding EPTs created so far.
    pub fn binding_count(&self) -> usize {
        self.binding_epts.len()
    }
}

/// Copies just the root frame of an EPT (all subtrees shared).
fn clone_root(mem: &mut HostMem, src: Hpa) -> Hpa {
    let dst = mem.alloc_reserved_frame();
    let mut buf = [0u8; PAGE_SIZE as usize];
    mem.read_slice(src, &mut buf);
    mem.write_slice(dst, &buf);
    dst
}

#[cfg(test)]
mod tests {
    use sb_mem::{
        paging::{AddressSpace, PteFlags},
        walk, Gva,
    };
    use sb_sim::PrivilegeLevel;

    use super::*;

    struct Env {
        machine: Machine,
        mem: HostMem,
        rk: Rootkernel,
    }

    fn boot() -> Env {
        let mut machine = Machine::skylake();
        let mut mem = HostMem::new();
        let rk = Rootkernel::boot(&mut machine, &mut mem, RootkernelConfig::default());
        Env { machine, mem, rk }
    }

    fn make_space(e: &mut Env, pcid: u16) -> AddressSpace {
        let asp = AddressSpace::new(&mut e.mem, pcid);
        asp.alloc_and_map(&mut e.mem, Gva(0x50_0000), 2, PteFlags::USER_DATA);
        asp
    }

    #[test]
    fn boot_demotes_all_cores_under_base_ept() {
        let e = boot();
        for cpu in &e.machine.cores {
            assert_eq!(cpu.mode, CpuMode::NonRoot);
            assert_eq!(cpu.ept_root, e.rk.base_ept.root.0);
        }
        assert_eq!(e.rk.exits.total(), 0);
    }

    #[test]
    fn steady_state_has_zero_exits() {
        let mut e = boot();
        let asp = make_space(&mut e, 1);
        let cpu = e.machine.cpu_mut(0);
        cpu.priv_level = PrivilegeLevel::User;
        cpu.load_cr3(asp.root_gpa.0, asp.pcid);
        // Ordinary guest execution: memory traffic through the base EPT.
        for i in 0..64 {
            walk::write_bytes(
                &mut e.machine,
                0,
                &mut e.mem,
                Gva(0x50_0000 + i * 8),
                &i.to_le_bytes(),
                true,
            )
            .unwrap();
        }
        assert_eq!(e.rk.exits.total(), 0, "Table 5: no exits in steady state");
    }

    #[test]
    fn vmfunc_switches_ept_and_costs_134() {
        let mut e = boot();
        let client = make_space(&mut e, 1);
        let server = make_space(&mut e, 2);
        let server_root = e.rk.bind(
            &mut e.machine,
            0,
            &mut e.mem,
            client.root_gpa,
            server.root_gpa,
        );
        let mut list = EptpList::new(1);
        list.pin(0, e.rk.base_ept.root);
        let (slot, _) = list.ensure(server_root);
        e.rk.install_eptp_list(&mut e.machine, 0, list);

        let before = e.machine.cpu(0).tsc;
        e.rk.vmfunc(&mut e.machine, 0, 0, slot).unwrap();
        assert_eq!(e.machine.cpu(0).tsc - before, 134);
        assert_eq!(e.machine.cpu(0).ept_root, server_root.0);
        assert_eq!(e.machine.cpu(0).pmu.vmfuncs, 1);
        // Return: slot 0 is the caller's own EPT.
        e.rk.vmfunc(&mut e.machine, 0, 0, 0).unwrap();
        assert_eq!(e.machine.cpu(0).ept_root, e.rk.base_ept.root.0);
    }

    #[test]
    fn vmfunc_does_not_exit_on_success() {
        let mut e = boot();
        let mut list = EptpList::new(1);
        list.pin(0, e.rk.base_ept.root);
        e.rk.install_eptp_list(&mut e.machine, 0, list);
        let exits_before = e.rk.exits.total();
        e.rk.vmfunc(&mut e.machine, 0, 0, 0).unwrap();
        assert_eq!(e.rk.exits.total(), exits_before);
    }

    #[test]
    fn vmfunc_bad_index_faults() {
        let mut e = boot();
        let mut list = EptpList::new(1);
        list.pin(0, e.rk.base_ept.root);
        e.rk.install_eptp_list(&mut e.machine, 0, list);
        assert_eq!(
            e.rk.vmfunc(&mut e.machine, 0, 0, 7),
            Err(VmfuncError::InvalidIndex)
        );
        assert_eq!(e.rk.exits.vmfunc_fault, 1);
    }

    #[test]
    fn vmfunc_bad_leaf_faults() {
        let mut e = boot();
        assert_eq!(
            e.rk.vmfunc(&mut e.machine, 0, 1, 0),
            Err(VmfuncError::InvalidLeaf)
        );
        assert_eq!(e.rk.exits.vmfunc_fault, 1);
    }

    #[test]
    fn vmfunc_in_root_mode_is_ud() {
        let mut e = boot();
        e.machine.cpu_mut(0).mode = CpuMode::Root;
        assert_eq!(
            e.rk.vmfunc(&mut e.machine, 0, 0, 0),
            Err(VmfuncError::NotInNonRootMode)
        );
        // #UD is not a VM exit.
        assert_eq!(e.rk.exits.total(), 0);
    }

    #[test]
    fn bind_is_idempotent_and_writes_four_pages() {
        let mut e = boot();
        let client = make_space(&mut e, 1);
        let server = make_space(&mut e, 2);
        let a = e.rk.bind(
            &mut e.machine,
            0,
            &mut e.mem,
            client.root_gpa,
            server.root_gpa,
        );
        let pages_after_first = e.rk.ept_pages_written;
        let b = e.rk.bind(
            &mut e.machine,
            0,
            &mut e.mem,
            client.root_gpa,
            server.root_gpa,
        );
        assert_eq!(a, b);
        assert_eq!(pages_after_first, 4);
        assert_eq!(e.rk.ept_pages_written, 4);
        assert_eq!(e.rk.binding_count(), 1);
        assert_eq!(e.rk.exits.vmcall, 2, "each bind hypercall is a VMCALL");
    }

    #[test]
    fn interrupts_pass_through_under_skybridge() {
        let mut e = boot();
        assert!(!e.rk.external_interrupt(&mut e.machine, 0));
        assert!(!e.rk.cr3_write(&mut e.machine, 0));
        assert_eq!(e.rk.exits.total(), 0);
    }

    #[test]
    fn commercial_controls_exit_on_everything() {
        let mut machine = Machine::skylake();
        let mut mem = HostMem::new();
        let config = RootkernelConfig {
            controls: ExitControls::commercial(),
        };
        let mut rk = Rootkernel::boot(&mut machine, &mut mem, config);
        let t0 = machine.cpu(0).tsc;
        assert!(rk.external_interrupt(&mut machine, 0));
        assert!(rk.cr3_write(&mut machine, 0));
        assert_eq!(rk.exits.total(), 2);
        assert_eq!(machine.cpu(0).tsc - t0, 2 * machine.cost.vm_exit);
    }

    #[test]
    fn process_ept_is_cached() {
        let mut e = boot();
        let client = make_space(&mut e, 1);
        let a =
            e.rk.process_ept(&mut e.machine, 0, &mut e.mem, client.root_gpa);
        let b =
            e.rk.process_ept(&mut e.machine, 0, &mut e.mem, client.root_gpa);
        assert_eq!(a, b);
        assert_ne!(a, e.rk.base_ept.root);
    }
}
