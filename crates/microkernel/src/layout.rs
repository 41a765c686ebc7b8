//! Virtual address-space layout of every process.
//!
//! All processes share one layout (as they would under one libOS runtime),
//! which is what lets SkyBridge map the trampoline and shared buffers at
//! the same virtual addresses in every participant.

use sb_mem::Gva;

/// Base of the process code image.
pub const CODE_BASE: Gva = Gva(0x0040_0000);

/// Maximum code image size (1 MiB).
pub const CODE_MAX: usize = 1024 * 1024;

/// Base of the process heap.
pub const HEAP_BASE: Gva = Gva(0x5000_0000);

/// Base of the per-thread IPC message buffers (one page per thread).
pub const MSG_BUF_BASE: Gva = Gva(0x6000_0000);

/// Bytes per message buffer.
pub const MSG_BUF_SIZE: usize = 4096;

/// The SkyBridge trampoline code page (mapped X-only at registration).
pub const TRAMPOLINE_BASE: Gva = Gva(0x7100_0000);

/// Connections one SkyBridge server may register. Stacks and shared
/// buffers are windows of this many slots, addressed `(server ordinal |
/// server id) * SB_CONNECTIONS + connection`, and the server's one-page
/// key table holds one 8-byte key per connection.
pub const SB_CONNECTIONS: usize = 64;

/// Servers one machine may register: the one-page function list holds
/// one 8-byte handler address per server id (the EPTP list's 512 too).
pub const SB_SERVERS: usize = 512;

/// Servers one process may host: what fits of their stack windows
/// between [`SB_STACK_BASE`] and [`IDENTITY_PAGE`].
pub const SB_SERVERS_PER_PROCESS: usize =
    (IDENTITY_PAGE.0 - SB_STACK_BASE.0) as usize / (SB_CONNECTIONS * SB_STACK_SIZE);

/// Base of the SkyBridge per-connection server stacks.
pub const SB_STACK_BASE: Gva = Gva(0x7180_0000);

/// Bytes per SkyBridge server stack.
pub const SB_STACK_SIZE: usize = 4 * 4096;

/// Base of the SkyBridge shared buffers (one per server thread/connection,
/// addressed by `(server id, connection)` across every participant's
/// address space — placed in a roomy region far above the 32-bit range so
/// hundreds of servers never collide with stacks or tables).
pub const SB_SHARED_BUF_BASE: Gva = Gva(0x20_0000_0000);

/// Bytes per SkyBridge shared buffer.
pub const SB_SHARED_BUF_SIZE: usize = 16 * 4096;

/// The identity page (§4.2): mapped at the same GVA in every process and
/// readable by the Subkernel, holding "which process does this core
/// currently execute" records.
pub const IDENTITY_PAGE: Gva = Gva(0x7300_0000);

/// Per-server calling-key table pages (in the server's address space).
pub const KEY_TABLE_BASE: Gva = Gva(0x7400_0000);

/// The server function list SkyBridge maps into clients at registration
/// (§3.1: "It maps a server function list into the client virtual address
/// space as well"): one entry per server id, holding the registered
/// handler's address. One page above a 64 KiB boundary: key tables,
/// shared buffers and the transports' data region all start on page
/// colour 0 (`vpn % 16`, the d-TLB's set index), and a crossing that
/// reads this page as well would need five entries of one four-way set
/// (`tests/layout.rs` holds the rule, DESIGN.md §9 the history).
pub const SERVER_LIST_BASE: Gva = Gva(0x7500_1000);

/// The rewrite page (§5.1): "the second page in the virtual address space",
/// deliberately left unmapped by most OSes, where rewritten instruction
/// snippets live.
pub const REWRITE_PAGE: Gva = Gva(0x1000);

/// Top of the per-thread user stacks (they grow down, one 16 KiB region
/// per thread).
pub const STACK_TOP: Gva = Gva(0x7fff_0000);

/// Bytes per user stack.
pub const STACK_SIZE: usize = 4 * 4096;

/// Kernel text window (a direct-map alias; kernel code is fetched through
/// the cache hierarchy at these host-physical addresses).
pub const KERNEL_TEXT_VPN_BASE: u64 = 0xffff_8000_0000_0000 >> 12;

/// Kernel data window.
pub const KERNEL_DATA_VPN_BASE: u64 = 0xffff_9000_0000_0000 >> 12;
