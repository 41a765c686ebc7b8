//! SkyBridge registration state.

use sb_mem::{Gva, Hpa};
use sb_microkernel::{ProcessId, ThreadId};

/// Identifier of a registered server.
pub type ServerId = usize;

/// A registered server.
#[derive(Debug)]
pub struct ServerInfo {
    /// Its ID (returned by `register_server`).
    pub id: ServerId,
    /// The serving process.
    pub process: ProcessId,
    /// The server's main thread (used for kernel bookkeeping only; calls
    /// migrate the *client's* thread into the server space).
    pub thread: ThreadId,
    /// GVA of the registered handler function (in the server's space).
    pub handler_fn: Gva,
    /// Approximate handler code size in bytes (fetched on every call).
    pub handler_len: usize,
    /// Maximum simultaneous connections (= number of stacks, §4.4).
    pub max_connections: usize,
    /// Connections handed out so far.
    pub next_connection: usize,
    /// Connection indices returned by `unbind_client`, reused before
    /// `next_connection` grows (so crash/rebind cycles don't exhaust the
    /// slot space).
    pub free_connections: Vec<usize>,
    /// GVA of the calling-key table page in the server's space.
    pub key_table: Gva,
    /// The handler crashed and the server awaits a supervisor revive;
    /// calls are refused with `SbError::ServerDead` meanwhile.
    pub dead: bool,
    /// Bits the server flips in the client key it echoes on return
    /// (§4.4): 0 for an honest server, set only by the
    /// `corrupt_echo_key` attack simulation.
    pub echo_flip: u64,
}

/// One client→server binding.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Target server.
    pub server: ServerId,
    /// Connection index (selects stack + shared buffer).
    pub connection: usize,
    /// The 8-byte calling key the Subkernel generated at registration
    /// (§4.4): the client presents it; the server checks it against its
    /// table.
    pub server_key: u64,
    /// GVA of the shared buffer (mapped in both client and server).
    pub shared_buf: Gva,
    /// GPA of the buffer's first frame (for chain cross-mapping).
    pub buf_gpa: u64,
    /// GVA of the server stack this connection uses.
    pub server_stack: Gva,
    /// Root of the binding EPT (client CR3 remapped to server CR3).
    pub ept_root: Hpa,
}

/// A recorded security violation (the "notify the kernel" of §4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A caller presented a key not in the server's table.
    BadServerKey {
        /// The client process.
        client: ProcessId,
        /// The called server.
        server: ServerId,
    },
    /// A server returned a key different from the client's per-call key.
    BadClientKey {
        /// The client process.
        client: ProcessId,
        /// The called server.
        server: ServerId,
    },
    /// A `VMFUNC` fault escalated to the Subkernel (self-prepared VMFUNC
    /// attempt by an unregistered process, or a corrupted slot).
    VmfuncFault {
        /// The offending process.
        process: ProcessId,
    },
    /// A handler exceeded the timeout and was forced to return.
    Timeout {
        /// The server that hung.
        server: ServerId,
    },
    /// A handler panicked mid-request and the server thread died.
    ServerCrash {
        /// The server that crashed.
        server: ServerId,
    },
}
