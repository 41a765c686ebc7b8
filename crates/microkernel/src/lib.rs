//! The Subkernel: a microkernel substrate with three IPC personalities.
//!
//! SkyBridge is evaluated on seL4, Fiasco.OC, and Google Zircon. Rather than
//! porting three kernels, this crate implements one microkernel substrate —
//! processes in separate address spaces, threads, capability-checked
//! synchronous endpoints, one IPC leg that both call and reply take,
//! optional KPTI — and three [`personality::Personality`] profiles that
//! reproduce each kernel's IPC control flow as the paper's Figure 7
//! decomposes it:
//!
//! * **seL4**: a fastpath for same-core `Call`/`ReplyWait` with in-register
//!   messages and direct process switch; the cross-core slowpath adds an
//!   IPI and the scheduler.
//! * **Fiasco.OC**: a fastpath that additionally drains deferred requests
//!   (drq), making it slower than seL4's.
//! * **Zircon**: no fastpath — every message takes two copies through a
//!   kernel buffer and goes through the scheduler, and the path is
//!   preemptible.
//!
//! Every path executes real work in the simulation: kernel text/data are
//! fetched through the cache hierarchy (polluting it, which is the indirect
//! cost of §2.1.2), message bytes move between real address spaces, CR3
//! loads and mode switches charge the measured costs, and cross-core paths
//! send real model IPIs.
//!
//! The SkyBridge integration points (the "~200 lines per kernel" of §6.2)
//! are here too: registration-time mapping hooks, the per-process EPTP
//! list installed at context switch, and the identity page that fixes
//! process misidentification (§4.2).

pub mod ipc;
pub mod kernel;
pub mod layout;
pub mod personality;
pub mod process;

pub use crate::{
    ipc::{Breakdown, Component, IpcError},
    kernel::{Kernel, KernelConfig},
    personality::Personality,
    process::{
        CapRights, Capability, EndpointId, Process, ProcessId, Thread, ThreadId, ThreadState,
    },
};
