//! Memory substrate: physical memory, guest page tables, and EPTs.
//!
//! SkyBridge's central trick (§4.3 of the paper) lives at the boundary of
//! three address spaces:
//!
//! * **GVA** — guest-virtual addresses, translated by per-process x86-64
//!   page tables whose root is named by CR3;
//! * **GPA** — guest-physical addresses, what page-table entries and CR3
//!   itself contain;
//! * **HPA** — host-physical addresses, what the active EPT translates GPAs
//!   into.
//!
//! The Rootkernel maps almost all physical memory *identity* GPA→HPA with
//! 1 GiB pages in a base EPT — except that each server's EPT remaps the GPA
//! of the client's page-table root to the HPA of the *server's* page-table
//! root. Executing `VMFUNC` therefore changes which page table the unchanged
//! CR3 value denotes, switching address spaces without a kernel entry.
//!
//! This crate implements all three translations literally: page tables and
//! EPTs are real radix trees stored in simulated physical frames, and the
//! walker in [`walk`] performs (and charges, through the simulated cache
//! hierarchy) every memory access a hardware walk would perform — including
//! the up-to-24 accesses of a fully nested 2-level walk that §4.1 cites as
//! the motivation for huge-page EPT mappings.

pub mod addr;
pub mod ept;
pub mod fault;
pub mod paging;
pub mod phys;
pub mod walk;

pub use crate::{
    addr::{Gpa, Gva, Hpa, PAGE_SIZE},
    ept::{Ept, EptPerms, PageSize},
    fault::MemFault,
    paging::{AddressSpace, PteFlags},
    phys::{HostMem, WalkMemoStats},
    walk::{read_bytes, translate, write_bytes, Access},
};
