//! SkyBridge errors.

use sb_mem::MemFault;
use sb_rewriter::rewrite::RewriteError;
use sb_rootkernel::VmfuncError;
use sb_sim::Cycles;

use crate::registry::ServerId;

/// Why a SkyBridge operation failed.
#[derive(Debug)]
pub enum SbError {
    /// The caller's process never registered with SkyBridge.
    NotRegistered,
    /// No such server ID.
    NoSuchServer,
    /// The client is not bound to this server (no
    /// `register_client_to_server`).
    NotBound,
    /// The server is out of connection slots.
    NoFreeConnection,
    /// `register_server` asked for more connections than a server's
    /// stack, buffer and key windows hold (`layout::SB_CONNECTIONS`).
    TooManyConnections,
    /// `register_server` would pass `layout::SB_SERVERS` on the machine
    /// or `layout::SB_SERVERS_PER_PROCESS` in the server's process.
    TooManyServers,
    /// The server's handler crashed (this call or an earlier one) and the
    /// server has not been revived. Recovery: revive + rebind, then retry.
    ServerDead {
        /// The dead server.
        server: ServerId,
    },
    /// The server-side calling-key check failed; the Subkernel was
    /// notified.
    BadServerKey,
    /// The client-side return-key check failed; the Subkernel was
    /// notified.
    BadClientKey,
    /// The handler exceeded the call timeout and control was forced back.
    /// Carries the offending server and the handler's elapsed simulated
    /// cycles so callers (the serving runtime's shed/timeout accounting)
    /// can distinguish causes.
    Timeout {
        /// The server whose handler overran the budget.
        server: ServerId,
        /// Simulated cycles the handler consumed before control was
        /// forced back.
        elapsed: Cycles,
    },
    /// Message exceeds the shared-buffer capacity.
    MessageTooLarge,
    /// `VMFUNC` faulted (bad slot) and recovery failed.
    Vmfunc(VmfuncError),
    /// The process's binary could not be scrubbed of inadvertent
    /// `VMFUNC`s.
    Rewrite(RewriteError),
    /// A translation fault during the call.
    Fault(MemFault),
}

impl std::fmt::Display for SbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbError::NotRegistered => write!(f, "process not registered"),
            SbError::NoSuchServer => write!(f, "no such server"),
            SbError::NotBound => write!(f, "client not bound to server"),
            SbError::NoFreeConnection => write!(f, "no free connection"),
            SbError::TooManyConnections => write!(f, "more connections than a server window"),
            SbError::TooManyServers => write!(f, "no server slot left"),
            SbError::ServerDead { server } => write!(f, "server {server} is dead"),
            SbError::BadServerKey => write!(f, "server calling-key mismatch"),
            SbError::BadClientKey => write!(f, "client calling-key mismatch"),
            SbError::Timeout { server, elapsed } => {
                write!(
                    f,
                    "call to server {server} timed out after {elapsed} cycles"
                )
            }
            SbError::MessageTooLarge => write!(f, "message too large"),
            SbError::Vmfunc(e) => write!(f, "VMFUNC fault: {e}"),
            SbError::Rewrite(e) => write!(f, "binary rewrite failed: {e}"),
            SbError::Fault(e) => write!(f, "memory fault: {e}"),
        }
    }
}

impl std::error::Error for SbError {}

impl From<MemFault> for SbError {
    fn from(f: MemFault) -> Self {
        SbError::Fault(f)
    }
}

impl From<VmfuncError> for SbError {
    fn from(e: VmfuncError) -> Self {
        SbError::Vmfunc(e)
    }
}

impl From<RewriteError> for SbError {
    fn from(e: RewriteError) -> Self {
        SbError::Rewrite(e)
    }
}
