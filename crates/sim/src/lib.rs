//! Simulated machine substrate for the SkyBridge reproduction.
//!
//! The paper evaluates SkyBridge on an Intel Skylake Core i7-6700K. This
//! container has no VT-x root access, so the reproduction runs on a
//! deterministic software model of that machine instead. The model has two
//! halves:
//!
//! * a **direct-cost model** ([`cost::CostModel`]) holding the cycle costs the
//!   paper measured directly (Table 2 and §2.1): `SYSCALL` 82, `SWAPGS` 26,
//!   `SYSRET` 75, CR3 write 186, `VMFUNC` 134, IPI 1913, and so on; and
//! * an **indirect-cost model**: real set-associative caches ([`cache`]) and
//!   TLBs ([`tlb`]) that are exercised by every simulated memory access, so
//!   that the pollution effects of Table 1 and Figure 2 *emerge* from state
//!   rather than being hard-coded.
//!
//! Each simulated core ([`core::Cpu`]) carries its own cycle counter (`tsc`),
//! private L1i/L1d/L2 caches, TLBs, and PMU counters; the machine
//! ([`machine::Machine`]) owns the shared L3 and delivers IPIs across cores.
//! Simulated time is totally ordered per core and joined explicitly at
//! cross-core interactions, which keeps the whole simulation single-threaded
//! and reproducible.

pub mod cache;
pub mod core;
pub mod cost;
pub mod lock;
mod lru;
pub mod machine;
pub mod pmu;
pub mod tlb;

pub use crate::{
    cache::{AccessKind, Cache, CacheConfig, PADDR_BITS},
    core::{Cpu, CpuId, CpuMode, PrivilegeLevel},
    cost::CostModel,
    lock::SimLock,
    machine::{Machine, MachineConfig},
    pmu::Pmu,
    tlb::{Tlb, TlbConfig, TlbTag},
};

/// Simulated processor cycles.
///
/// All latencies in the simulation are expressed in cycles of the modeled
/// 4 GHz Skylake part; the paper reports all of its microbenchmarks in the
/// same unit.
pub type Cycles = u64;
