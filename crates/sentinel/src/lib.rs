//! `sb-sentinel`: causal request tracing, SLO health tracking, and
//! flight-recorder postmortems for the SkyBridge stack.
//!
//! `sb-observe` gives every run per-lane event rings and phase
//! attribution; this crate turns those raw signals into
//! *accountable* observability:
//!
//! * [`trace`] — assembles per-request span trees from the rings, keyed
//!   by the `WireHeader.corr` trace id that the transports and the
//!   SkyBridge core propagate across nested IPC hops, and computes each
//!   request's critical path so a tail-latency outlier names a specific
//!   hop and phase. Assembly is lossless-or-nothing: requests truncated
//!   by ring overwrite are excluded and counted, never presented as
//!   plausible partial trees.
//! * [`slo`] — per-server latency/error objectives evaluated online
//!   over sliding windows with multi-window (fast/slow) burn-rate
//!   breach detection.
//! * [`postmortem`] — on breach or unrecovered fault, snapshots recent
//!   rings, the run's row, PMU counters, the fault ledger, and SLO
//!   health into one self-contained JSON bundle with explicit
//!   truncation accounting.
//!
//! The crate sits beside the transports (it depends only on `sb-sim`,
//! `sb-observe`, `sb-transport`, and `sb-faultplane`), so the runtime
//! dispatcher, the scenario harnesses, and the benches can all hold its
//! handles without dependency cycles.

pub mod postmortem;
pub mod slo;
pub mod trace;

pub use postmortem::{
    fault_row_json, slo_json, BundleReceipt, PostmortemInput, PostmortemSpec, SCHEMA,
};
pub use slo::{SloHandle, SloHealth, SloSpec};
pub use trace::{assemble, assemble_lanes, PathStep, RequestTrace, SpanNode, TraceForest};
