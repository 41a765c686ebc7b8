//! `sb-observe`: always-on tracing and phase-level profiling for the
//! SkyBridge IPC stack.
//!
//! The paper's evaluation attributes SkyBridge's win by decomposing a
//! call into phases (trampoline, EPTP switch, handler — Table 3 and
//! Figure 7). This crate makes that decomposition a property of *every*
//! run, not just the dedicated bench:
//!
//! * [`Recorder`] + [`EventRing`] — per-lane fixed-capacity rings of
//!   typed [`Event`]s (call/phase spans, queue admit/shed/deadline,
//!   retry/backoff, recovery), timestamped by the transport's
//!   per-lane simulated-cycle clocks. The emit path is a flag check plus
//!   a slot write, and [`Recorder::off`] stops at the check.
//! * [`Log2Histogram`] — fixed-memory latency quantiles with a bounded
//!   relative error, behind the runtime's latency tracks.
//! * [`span::span_pass`] — the one place a lane's events become spans:
//!   Begin/End pairing, nesting, and the one [`Loss`] account every
//!   reader below reports, rendered by one [`loss_json`].
//! * [`phase::attribute`] — folds a recorded run's spans into a
//!   trampoline / switch / marshal / queue-wait / handler cycle
//!   breakdown ([`PhaseProfile`]), a software Figure 7, and into
//!   collapsed-stack flamegraphs in cycles from the same exact fold.
//! * [`export::chrome_trace`] — Chrome trace-event JSON loadable in
//!   Perfetto, with explicit truncation accounting when a ring
//!   overwrote events.
//! * [`Json`] — the workspace's one JSON value: the compact writer every
//!   results file and postmortem bundle goes through, and the strict
//!   reader ([`Json::parse`]) gates and tests read them back with.
//! * [`put_varint`] / [`get_varint`] — the one LEB128 codec, shared by
//!   the graph's commit log and the runtime's latency tracks.
//!
//! The crate depends only on `sb-sim`, so every layer of the stack —
//! transports, the SkyBridge core, the dispatcher, the chaos harness —
//! can hold a [`Recorder`] clone without dependency cycles.

pub mod export;
pub mod hist;
pub mod json;
pub mod phase;
pub mod ring;
pub mod span;
pub mod varint;

pub use export::{chrome_trace, ChromeTrace};
pub use hist::{Log2Histogram, HIST_RELATIVE_ERROR};
pub use json::Json;
pub use phase::{attribute, attribute_by_corr, PhaseProfile};
pub use ring::{
    Event, EventKind, EventRing, InstantKind, Recorder, SpanKind, DEFAULT_RING_CAPACITY,
};
pub use span::{loss_json, span_pass, Loss, Span, SpanPass};
pub use varint::{get_varint, put_varint};
