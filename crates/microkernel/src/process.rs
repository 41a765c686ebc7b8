//! Processes, threads, capabilities, and endpoints.

use sb_mem::{AddressSpace, Gpa, Gva};
use sb_rootkernel::EptpList;
use sb_sim::CpuId;

/// Index of a process in the kernel's table.
pub type ProcessId = usize;

/// Index of a thread in the kernel's table.
pub type ThreadId = usize;

/// Index of an endpoint in the kernel's table.
pub type EndpointId = usize;

/// Rights carried by a capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapRights {
    /// May send (call) through the endpoint.
    pub send: bool,
    /// May receive (serve) on the endpoint.
    pub recv: bool,
}

impl CapRights {
    /// Send-only rights (a client's view of a service endpoint).
    pub const SEND: CapRights = CapRights {
        send: true,
        recv: false,
    };
    /// Receive-only rights (the server's end).
    pub const RECV: CapRights = CapRights {
        send: false,
        recv: true,
    };
}

/// A capability: a reference to a kernel object plus rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capability {
    /// An IPC endpoint.
    Endpoint {
        /// Which endpoint.
        endpoint: EndpointId,
        /// With which rights.
        rights: CapRights,
    },
}

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable (queued or current).
    Ready,
    /// Blocked waiting to receive on an endpoint.
    RecvBlocked,
    /// Blocked waiting for a reply from the thread its call landed on
    /// (the only thread that may reply).
    ReplyBlocked(ThreadId),
    /// Exited or killed (e.g. after a SkyBridge security violation).
    Dead,
}

/// One thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Its id (index in the kernel's thread table).
    pub id: ThreadId,
    /// Owning process.
    pub process: ProcessId,
    /// The core this thread is affine to (the evaluation pins threads).
    pub core: CpuId,
    /// Scheduling state.
    pub state: ThreadState,
    /// Top of this thread's user stack.
    pub stack_top: Gva,
    /// This thread's IPC message buffer.
    pub msg_buf: Gva,
}

/// One process: an isolated address space plus kernel bookkeeping.
#[derive(Debug)]
pub struct Process {
    /// Its id (index in the kernel's process table).
    pub id: ProcessId,
    /// The process's own page table. SkyBridge keeps per-process page
    /// tables (§4.3) — this is what the server EPT's CR3 remap points at.
    pub asp: AddressSpace,
    /// Thread ids owned by this process.
    pub threads: Vec<ThreadId>,
    /// Capability space.
    pub caps: Vec<Capability>,
    /// Loaded code image size in bytes (the region the rewriter scans).
    pub code_len: usize,
    /// SkyBridge: the EPTP list to install when this process is scheduled
    /// (`None` until the process registers with SkyBridge).
    pub eptp_list: Option<EptpList>,
    /// SkyBridge: this process's own EPT root once registered.
    pub own_ept: Option<sb_mem::Hpa>,
}

/// A synchronous IPC endpoint.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Its id.
    pub id: EndpointId,
    /// The process that created (serves) it.
    pub owner: ProcessId,
    /// The server thread currently bound to receive on it.
    pub server: Option<ThreadId>,
    /// Its kernel object, numbered in creation order: the seed of the
    /// data its IPC legs touch. Equal to `id` until
    /// [`Kernel::rebind`](crate::Kernel::rebind) renews it.
    pub object: usize,
}

impl Process {
    /// Installs a capability, returning its slot index.
    pub fn grant(&mut self, cap: Capability) -> usize {
        self.caps.push(cap);
        self.caps.len() - 1
    }

    /// Looks up a capability by slot.
    pub fn cap(&self, slot: usize) -> Option<Capability> {
        self.caps.get(slot).copied()
    }

    /// The CR3 value (page-table root GPA) of this process.
    pub fn cr3(&self) -> Gpa {
        self.asp.root_gpa
    }
}

#[cfg(test)]
mod tests {
    use sb_mem::HostMem;

    use super::*;

    #[test]
    fn grant_and_lookup() {
        let mut mem = HostMem::new();
        let mut p = Process {
            id: 0,
            asp: AddressSpace::new(&mut mem, 1),
            threads: Vec::new(),
            caps: Vec::new(),
            code_len: 0,
            eptp_list: None,
            own_ept: None,
        };
        let slot = p.grant(Capability::Endpoint {
            endpoint: 3,
            rights: CapRights::SEND,
        });
        assert_eq!(
            p.cap(slot),
            Some(Capability::Endpoint {
                endpoint: 3,
                rights: CapRights::SEND
            })
        );
        assert_eq!(p.cap(slot + 1), None);
    }
}
