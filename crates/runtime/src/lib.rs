//! `sb-runtime`: the SkyBridge serving runtime.
//!
//! The core crates model one call; this crate turns the call primitive
//! into a *serving system* and asks the paper's throughput question at
//! scale: given a stream of millions of requests, how much offered load
//! can each IPC transport sustain before the server has to shed?
//!
//! The pieces:
//!
//! * [`Transport`] (from `sb-transport`) — `bind` / `call` / `reply` /
//!   `recover` over per-lane simulated cores, with the zero-copy
//!   [`sb_transport::wire`] message layout. The transports live in
//!   `sb-transport` and share its per-lane `Envelope`, each owning only
//!   its crossing: [`TrapIpcTransport`] (`ipc_call` / `ipc_reply` under a
//!   seL4/Fiasco.OC/Zircon personality), [`MpkTransport`] (two `WRPKRU`
//!   flips in a single address space) and `FixedServiceTransport` (the
//!   synthetic backend for dispatcher tests), all re-exported here.
//!   [`SkyBridgeTransport`] alone stays in this crate, because it needs
//!   the `skybridge` facility: it serves via `direct_server_call` (one
//!   connection slot, and so one shared buffer, per server thread —
//!   §4.4's concurrency rule). [`Faulty`] wraps any of them with the
//!   chaos fault plane.
//! * The one discrete-event serving loop (`dispatch.rs`): the
//!   [`TenantFabric`]'s gate, one outcome ledger, one retry path,
//!   admission control ([`AdmissionPolicy::Shed`] vs
//!   [`AdmissionPolicy::Block`]), optional queue deadlines, and per-call
//!   DoS-timeout budgets via the existing `skybridge` §7 machinery. The
//!   transport it is built over selects one of two lane-queue
//!   disciplines: [`ServerRuntime`] (any [`Transport`]) keeps admitted
//!   requests in the fabric's per-tenant DRR queues and binds each to
//!   the earliest-free lane when service starts; [`RingRuntime`] (a
//!   [`RingTransport`]) binds each arrival to a lane's submission ring
//!   at once and batches the crossing behind an adaptive doorbell.
//! * [`PoissonArrivals`] / [`RequestFactory`] — open-loop Poisson load
//!   generation over `sb-ycsb` key mixes.
//! * [`RunStats`] — throughput, p50/p95/p99 latency in simulated cycles,
//!   queue depth, shed counts, marshalling bytes copied, per-core
//!   utilization, and [`run_stats_json`], its one renderer: the row of
//!   every results file and the `run` block of a postmortem bundle.

mod dispatch;
pub mod load;
pub mod sky;
pub mod stats;
pub mod tenant;

pub use sb_observe::Recorder;
pub use sb_sentinel::{SloHandle, SloSpec};
pub use sb_transport::{
    CallError, Faulty, FixedServiceTransport, MpkTransport, Request, RingConfig, RingTransport,
    ServiceSpec, TenantId, Transport, TrapIpcTransport,
};

pub use crate::{
    dispatch::{RetryPolicy, RingRuntime, RuntimeConfig, ServerRuntime},
    load::{PoissonArrivals, RequestFactory},
    sky::SkyBridgeTransport,
    stats::{run_stats_json, LatencyTrack, RunStats, TenantStats, EXACT_LATENCY_CAP},
    tenant::{
        AdmissionPolicy, Gate, RateLimit, TenantAction, TenantFabric, TenantRegistry, TenantSpec,
    },
};
