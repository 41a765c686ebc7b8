//! Typed trace events, the per-lane event ring, and the [`Recorder`].
//!
//! The recorder is the stack's one emit surface: every instrumented layer
//! (transports, the SkyBridge core, the dispatcher) holds a cheap clone and pushes fixed-size [`Event`]s into per-lane
//! rings. Lanes are the transport's serving lanes — each owns a simulated
//! core, so a lane's events are timestamped by one monotone cycle clock
//! and need no cross-lane ordering. The dispatcher uses one extra lane
//! index (one past the last transport lane) as its own track.
//!
//! The emit path is lock-free in the only sense that matters for the
//! single-threaded simulation: one `enabled` flag read, one `RefCell`
//! borrow, one bounds-checked slot write — no heap traffic once a ring
//! has grown to capacity. A full ring overwrites its oldest events and
//! counts them in [`Recorder::dropped`], so exporters can refuse to
//! present a truncated trace as complete.
//!
//! Whether a recorder records is fixed when it is made:
//! [`Recorder::new`] records, [`Recorder::off`] drops every event after
//! that one flag read.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sb_sim::Cycles;

use crate::span::{span_pass, Loss, SpanPass};

/// Default per-lane ring capacity, in events.
///
/// Sized so the ring's working set stays cache-resident (4,096 events ≈
/// 96 KiB/lane — a few hundred calls of recent history): an always-on
/// flight recorder that cycles a multi-megabyte buffer turns every emit
/// into a cache miss and the tracing tax blows past the 25 ns CI holds
/// the benchmark's `observe.emit.host_ns` to. Deliberate offline captures
/// (e.g. a Perfetto dump of a whole run) should pass a larger capacity
/// to [`Recorder::new`] instead.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 12;

/// A timed section of a call, one of the paper's phases or the
/// dispatcher's wait states. Begin/End pairs of the same kind nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole transport call, entry to reply.
    Call,
    /// Time between a request's arrival and its service start.
    QueueWait,
    /// Client-side trampoline work: fetch, register save/restore,
    /// function-list lookup, return-key recheck.
    Trampoline,
    /// One EPTP switch (`VMFUNC`, including any fault + reinstall).
    Switch,
    /// A real marshalling copy into or out of a message buffer.
    Marshal,
    /// Server-side work: identity, key check, handler body.
    Handler,
    /// A kernel IPC leg (`ipc_call` / `ipc_reply`) on a trap transport.
    KernelIpc,
    /// Idle lane time spent backing off before a retry.
    Backoff,
    /// Time a submitted frame sat in a submission ring before its batch
    /// was drained (ring mode's analogue of `QueueWait`).
    RingWait,
    /// One doorbell drain: the shared crossing that serves a whole batch
    /// in ring mode. Per-entry `Call` spans nest inside it, so its
    /// self-time is exactly the amortized crossing overhead.
    Doorbell,
    /// One `WRPKRU` protection-domain flip on the MPK transport (the
    /// analogue of `Switch` when the crossing changes pkey rights
    /// instead of EPTPs). Nested inside `Call`, so the phase identity
    /// `in_call_total == end_to_end` stays closed.
    Wrpkru,
}

impl SpanKind {
    /// Every span kind, in display order.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Call,
        SpanKind::QueueWait,
        SpanKind::Trampoline,
        SpanKind::Switch,
        SpanKind::Marshal,
        SpanKind::Handler,
        SpanKind::KernelIpc,
        SpanKind::Backoff,
        SpanKind::RingWait,
        SpanKind::Doorbell,
        SpanKind::Wrpkru,
    ];

    /// Stable display name (trace and report keys).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Call => "call",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Trampoline => "trampoline",
            SpanKind::Switch => "switch",
            SpanKind::Marshal => "marshal",
            SpanKind::Handler => "handler",
            SpanKind::KernelIpc => "kernel_ipc",
            SpanKind::Backoff => "backoff",
            SpanKind::RingWait => "ring_wait",
            SpanKind::Doorbell => "doorbell",
            SpanKind::Wrpkru => "wrpkru",
        }
    }

    /// Whether this is a wait state (queue wait, backoff, ring wait):
    /// stamped retroactively over time that other spans own.
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            SpanKind::QueueWait | SpanKind::Backoff | SpanKind::RingWait
        )
    }
}

/// A point event with no duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// An arrival was admitted into the dispatch queue.
    QueueAdmit,
    /// An arrival was shed because the queue was full.
    ShedQueueFull,
    /// A queued request was dropped past its queue deadline.
    ShedDeadline,
    /// An arrival was shed at the tenant admission gate (rate limit or
    /// quarantine window).
    ShedRateLimit,
    /// A failed call is about to be re-attempted.
    Retry,
    /// A transport recovery (revive/rebind/respawn) succeeded.
    Recovery,
}

impl InstantKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            InstantKind::QueueAdmit => "queue_admit",
            InstantKind::ShedQueueFull => "shed_queue_full",
            InstantKind::ShedDeadline => "shed_deadline",
            InstantKind::ShedRateLimit => "shed_rate_limit",
            InstantKind::Retry => "retry",
            InstantKind::Recovery => "recovery",
        }
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span of `SpanKind` opened.
    Begin(SpanKind),
    /// The innermost open span of `SpanKind` closed.
    End(SpanKind),
    /// A point event.
    Instant(InstantKind),
    /// A completed **leaf** section recorded post-hoc as one event: it
    /// starts at [`Event::t`], runs `dur` cycles, and contains no child
    /// spans. [`Recorder::span`] emits this — one ring slot instead of a
    /// Begin/End pair, halving the hot path's ring traffic.
    Complete(SpanKind, u32),
}

/// One fixed-size trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Lane-clock timestamp in simulated cycles.
    pub t: Cycles,
    /// Correlation id — the request id for call-path events, zero where
    /// no request is in scope.
    pub corr: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A fixed-capacity overwrite-oldest ring of events.
///
/// The backing storage grows on demand up to `capacity` and is then
/// reused forever; a push into a full ring overwrites the oldest event
/// and counts it as dropped.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Next overwrite slot once the ring is full — the oldest held
    /// event. Kept as an explicit wrapping index so the hot push never
    /// divides.
    head: usize,
    /// Total events ever pushed.
    pushed: u64,
}

impl EventRing {
    /// An empty ring bounded at `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring needs at least one slot");
        EventRing {
            buf: Vec::new(),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Appends `ev`, overwriting the oldest event when full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.pushed += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to overwrite.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// The held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let start = if self.buf.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.buf[start..].iter().chain(self.buf[..start].iter())
    }
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    capacity: usize,
    lanes: RefCell<Vec<EventRing>>,
    /// Events removed by [`Recorder::take_lane_events`] and the drops
    /// they had already suffered — folded back into
    /// [`Recorder::recorded`] / [`Recorder::dropped`] so a chunked
    /// harvest keeps exact loss accounting.
    drained_events: Cell<u64>,
    drained_dropped: Cell<u64>,
    /// Unused: holds `Inner` at the 272 bytes it had while it carried the
    /// cycle sampler's state and the fault track. Every transport boot
    /// allocates off recorders, and glibc places what follows by their size: at 160
    /// bytes the benchmark's first thread-local lands low in the heap,
    /// so glibc trims the heap after each SkyBridge transport drop and
    /// every later boot in the process re-faults ~230 pages (`xcall_sky`
    /// `setup_s` +29 %). EXPERIMENTS.md "Exact profile and profile diff"
    /// has the allocation trace.
    _heap_layout: [u64; 26],
}

/// The shared recorder handle every instrumented layer holds.
///
/// Cloning is an `Rc` bump; a clone records into the same rings. The
/// default recorder is **off**: emit methods return after one flag read
/// and nothing is ever allocated, so uninstrumented runs pay (almost)
/// nothing and a disabled-but-attached recorder is the overhead bench's
/// "disabled" mode.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Rc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::off()
    }
}

impl Recorder {
    /// An enabled recorder with `capacity` events per lane ring.
    pub fn new(capacity: usize) -> Self {
        Recorder::with_state(capacity, true)
    }

    /// A disabled recorder (the no-cost default every config starts
    /// with). It stays off: a recorded run attaches a [`Recorder::new`].
    pub fn off() -> Self {
        Recorder::with_state(DEFAULT_RING_CAPACITY, false)
    }

    fn with_state(capacity: usize, enabled: bool) -> Self {
        Recorder {
            inner: Rc::new(Inner {
                enabled,
                capacity: capacity.max(1),
                lanes: RefCell::new(Vec::new()),
                drained_events: Cell::new(0),
                drained_dropped: Cell::new(0),
                _heap_layout: [0; 26],
            }),
        }
    }

    /// The per-lane ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The ring write of an enabled recorder. The emit methods check
    /// the flag inline and call this only when it is set, so a disabled
    /// recorder costs a load and a branch at each call site.
    #[inline(never)]
    fn emit(&self, lane: usize, ev: Event) {
        let mut lanes = self.inner.lanes.borrow_mut();
        if lanes.len() <= lane {
            let cap = self.inner.capacity;
            lanes.resize_with(lane + 1, || EventRing::new(cap));
        }
        lanes[lane].push(ev);
    }

    /// Opens a span of `kind` on `lane` at lane-clock `t`.
    #[inline]
    pub fn begin(&self, lane: usize, kind: SpanKind, t: Cycles, corr: u64) {
        if self.inner.enabled {
            self.emit(
                lane,
                Event {
                    t,
                    corr,
                    kind: EventKind::Begin(kind),
                },
            );
        }
    }

    /// Closes the innermost open span of `kind` on `lane` at `t`.
    #[inline]
    pub fn end(&self, lane: usize, kind: SpanKind, t: Cycles, corr: u64) {
        if self.inner.enabled {
            self.emit(
                lane,
                Event {
                    t,
                    corr,
                    kind: EventKind::End(kind),
                },
            );
        }
    }

    /// Records a completed **leaf** section as one [`EventKind::Complete`]
    /// event — the instrumentation pattern for sections with early-error
    /// exits: measure first, emit once the section's extent is known, so
    /// a `?` in the middle can never leave a span unclosed. A backwards
    /// `t1` clamps to a zero-length span; durations saturate at `u32::MAX`
    /// cycles (≈ one simulated second — far beyond any section).
    #[inline]
    pub fn span(&self, lane: usize, kind: SpanKind, t0: Cycles, t1: Cycles, corr: u64) {
        if self.inner.enabled {
            let dur = t1.saturating_sub(t0).min(u32::MAX as Cycles) as u32;
            self.emit(
                lane,
                Event {
                    t: t0,
                    corr,
                    kind: EventKind::Complete(kind, dur),
                },
            );
        }
    }

    /// Records a point event on `lane` at `t`.
    #[inline]
    pub fn instant(&self, lane: usize, kind: InstantKind, t: Cycles, corr: u64) {
        if self.inner.enabled {
            self.emit(
                lane,
                Event {
                    t,
                    corr,
                    kind: EventKind::Instant(kind),
                },
            );
        }
    }

    /// Drains every lane's event ring, returning the held events per
    /// lane (oldest first) — the chunked-capture primitive: harvest and
    /// fold into a [`PhaseProfile`](crate::phase::PhaseProfile) before
    /// the ring wraps, and an arbitrarily long run gets an exact
    /// profile from bounded memory. [`Recorder::recorded`] and
    /// [`Recorder::dropped`] keep counting across the drain.
    pub fn take_lane_events(&self) -> Vec<Vec<Event>> {
        let mut lanes = self.inner.lanes.borrow_mut();
        let cap = self.inner.capacity;
        let mut out = Vec::with_capacity(lanes.len());
        for ring in lanes.iter_mut() {
            self.inner
                .drained_events
                .set(self.inner.drained_events.get() + ring.pushed());
            self.inner
                .drained_dropped
                .set(self.inner.drained_dropped.get() + ring.dropped());
            let drained = std::mem::replace(ring, EventRing::new(cap));
            out.push(drained.iter().copied().collect());
        }
        out
    }

    /// Number of lane tracks that have recorded at least one event.
    pub fn lane_count(&self) -> usize {
        self.inner.lanes.borrow().len()
    }

    /// Lane `lane`'s held events, oldest first (empty for an unused
    /// lane).
    pub fn events(&self, lane: usize) -> Vec<Event> {
        let lanes = self.inner.lanes.borrow();
        match lanes.get(lane) {
            Some(ring) => ring.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Reads every lane, each clipped to its newest `budget` events,
    /// through the span pass ([`span_pass`]): returns the events read and
    /// the pass. Each lane's loss ahead of what was read is its own ring's
    /// overwrites plus the clip; the pass's `loss.ring_dropped` is
    /// [`Recorder::dropped`].
    pub fn capture(&self, budget: usize) -> (Vec<Vec<Event>>, SpanPass) {
        let mut lanes = Vec::new();
        let mut lost = Vec::new();
        for ring in self.inner.lanes.borrow().iter() {
            let clipped = ring.len().saturating_sub(budget);
            lanes.push(ring.iter().skip(clipped).copied().collect());
            lost.push(Loss {
                ring_dropped: ring.dropped(),
                clipped: clipped as u64,
                ..Loss::default()
            });
        }
        let mut pass = span_pass(&lanes, &lost);
        pass.loss.ring_dropped = self.dropped();
        (lanes, pass)
    }

    /// Total events lost to ring overwrite, across every lane
    /// (including lanes already harvested by
    /// [`Recorder::take_lane_events`]).
    pub fn dropped(&self) -> u64 {
        let lanes = self.inner.lanes.borrow();
        lanes.iter().map(EventRing::dropped).sum::<u64>() + self.inner.drained_dropped.get()
    }

    /// Total events ever recorded, across every lane (including
    /// events already harvested by [`Recorder::take_lane_events`]).
    pub fn recorded(&self) -> u64 {
        let lanes = self.inner.lanes.borrow();
        lanes.iter().map(EventRing::pushed).sum::<u64>() + self.inner.drained_events.get()
    }

    /// Empties every lane and zeroes the drop accounting; an enabled
    /// recorder keeps recording.
    pub fn clear(&self) {
        self.inner.lanes.borrow_mut().clear();
        self.inner.drained_events.set(0);
        self.inner.drained_dropped.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Cycles) -> Event {
        Event {
            t,
            corr: t,
            kind: EventKind::Instant(InstantKind::QueueAdmit),
        }
    }

    #[test]
    fn event_stays_within_its_footprint_budget() {
        // The default ring's cache-residency math (and DESIGN.md §12)
        // assumes 24-byte lane events; growing Event silently would
        // inflate every ring's working set.
        assert!(std::mem::size_of::<Event>() <= 24);
    }

    /// `Inner` keeps the 272 bytes `_heap_layout` holds it at: a smaller
    /// recorder allocation moves the benchmark's heap placement
    /// (`xcall_sky` `setup_s`).
    #[test]
    fn the_recorder_allocation_keeps_its_size() {
        assert_eq!(std::mem::size_of::<Inner>(), 272);
    }

    #[test]
    fn ring_grows_then_wraps_overwriting_oldest() {
        let mut r = EventRing::new(4);
        for t in 0..4 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        let held: Vec<Cycles> = r.iter().map(|e| e.t).collect();
        assert_eq!(held, vec![0, 1, 2, 3]);

        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4, "capacity is a hard bound");
        assert_eq!(r.dropped(), 2, "the two oldest were overwritten");
        let held: Vec<Cycles> = r.iter().map(|e| e.t).collect();
        assert_eq!(held, vec![2, 3, 4, 5], "oldest-first across the wrap");
    }

    #[test]
    fn ring_iterates_in_push_order_at_every_fill_level() {
        for n in 0..12u64 {
            let mut r = EventRing::new(5);
            for t in 0..n {
                r.push(ev(t));
            }
            let held: Vec<Cycles> = r.iter().map(|e| e.t).collect();
            let expect: Vec<Cycles> = (n.saturating_sub(5)..n).collect();
            assert_eq!(held, expect, "fill level {n}");
            assert_eq!(r.pushed(), n);
            assert_eq!(r.is_empty(), n == 0);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing_and_allocates_nothing() {
        let r = Recorder::off();
        r.begin(0, SpanKind::Call, 10, 1);
        r.end(0, SpanKind::Call, 20, 1);
        r.span(1, SpanKind::Handler, 5, 9, 2);
        r.instant(2, InstantKind::Retry, 7, 3);
        assert_eq!(r.lane_count(), 0, "no ring was ever created");
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn span_emits_one_complete_event_and_clamps_backwards_time() {
        let r = Recorder::new(8);
        r.span(0, SpanKind::Marshal, 100, 90, 7);
        let evs = r.events(0);
        assert_eq!(evs.len(), 1, "a leaf section costs one ring slot");
        assert_eq!(evs[0].t, 100);
        assert_eq!(
            evs[0].kind,
            EventKind::Complete(SpanKind::Marshal, 0),
            "a backwards end clamps to a zero-length span"
        );
    }

    #[test]
    fn clones_share_rings_and_clear_resets() {
        let r = Recorder::new(8);
        let r2 = r.clone();
        r2.span(3, SpanKind::Backoff, 0, 4, 1);
        assert_eq!(r.events(3).len(), 1, "clones record into the same rings");
        assert_eq!(r.lane_count(), 4);
        r.clear();
        assert_eq!(r.recorded(), 0);
        r.span(3, SpanKind::Backoff, 4, 8, 2);
        assert_eq!(r.recorded(), 1, "clear keeps the enabled flag");
    }
}
