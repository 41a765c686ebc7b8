//! sb-transport: the unified zero-copy IPC transport layer.
//!
//! One [`Transport`] trait serves every IPC personality in the
//! reproduction — SkyBridge direct server calls, kernel trap IPC under
//! the seL4, Fiasco.OC and Zircon cost personalities, and the
//! [`mpk`] protection-key crossing — over one [`wire`] message layout: a
//! fixed [`WireHeader`] (opcode, correlation id, deadline, payload
//! length) ahead of a payload written **once** into the
//! per-server-thread shared buffer and served in place. SkyBridge's
//! transport (in `sb-runtime`) writes only that payload to simulated
//! memory: the header stays in the lane's host-side staging image, its
//! fields the small arguments the paper's trampoline carries in
//! registers.
//!
//! Every wire-staging transport keeps its lanes in one [`Envelope`]: the
//! staging images, the copy meter, the recorder and the `Call` span, the
//! stale-reply seam and the reply-corr check. Each kernel-backed one
//! serves the same record work ([`ServiceSpec::serve_record`]: one
//! 64-byte record line charged as a read or a write, no host bytes
//! moved). What a
//! personality owns is its crossing alone: [`TrapIpcTransport`]'s
//! `ipc_call`/`ipc_reply`, [`MpkTransport`]'s `WRPKRU` pair,
//! [`FixedServiceTransport`]'s clock bump, and — in `sb-runtime`, which
//! holds the `skybridge` dependency — `SkyBridgeTransport`'s trampoline.
//!
//! The dispatcher, retry/recovery machinery, load generator, and the
//! chaos and differential harnesses (in `sb-runtime`) are generic over
//! [`Transport`]; [`Faulty`] composes fault injection with any backend.

mod envelope;
mod faulty;
pub mod mpk;
pub mod ring;
pub mod service;
mod transport;
pub mod trap;
pub mod wire;

pub use envelope::Envelope;
pub use faulty::Faulty;
pub use mpk::MpkTransport;
pub use ring::{RingCompletion, RingConfig, RingError, RingTransport};
pub use service::{ServiceSpec, DATA_BASE, RECORD_LINE};
pub use transport::{
    verify_reply_corr, BatchComplete, CallError, FixedServiceTransport, Transport,
};
pub use trap::TrapIpcTransport;
pub use wire::{
    CopyMeter, Lane, Request, TenantId, WireHeader, OP_TAG_OFFSET, WIRE_HEADER_LEN, WIRE_MIN,
};
