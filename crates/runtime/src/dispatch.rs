//! The serving loop: one discrete-event dispatcher over per-lane clocks,
//! with two lane-queue disciplines.
//!
//! The runtime simulates an M/G/k server. Open-loop arrivals pass the
//! [`TenantFabric`]'s rate/quarantine gate
//! and are offered to the *lane queue*; whatever happens to a request —
//! completed, timed out, failed, or shed for one of three reasons — is
//! booked by one function, [`Core::settle`], so `RunStats`, the tenant
//! rows, the trace, the [`SloHandle`] and the fabric can never disagree.
//! Lane clocks are the transport's simulated cores, so service times
//! (and their cache/TLB history) come out of the machine model, not a
//! distribution.
//!
//! What differs between the two serving modes is only *where admitted
//! requests wait and when they are bound to a lane* — the [`LaneQueue`]
//! the transport type selects:
//!
//! - **[`Central`] — one central queue, late binding**
//!   ([`ServerRuntime`], any [`Transport`]). Requests wait in the
//!   fabric's per-tenant queues under deficit round robin and each is
//!   started on the earliest-free lane, never before everything that
//!   starts earlier in simulated time has been issued; the queue
//!   deadline is checked when service starts. Because the lane is chosen
//!   at the last moment, the scheduler can reorder across tenants up to
//!   the instant of service — the better discipline for weighted
//!   fairness and for tail latency. With a single tenant (no
//!   [`TenantRegistry`] configured) the fabric is the old global FIFO
//!   exactly.
//! - **[`Rings`] — per-lane rings, early binding** ([`RingRuntime`], a
//!   [`RingTransport`]). An arrival is submitted at once into the
//!   least-occupied lane's submission ring and the loop only decides
//!   *when to ring the doorbell*: a lane that would otherwise idle
//!   drains immediately (batches of one, direct-mode latency); a busy
//!   lane accumulates frames and is drained at the batch budget, paying
//!   one crossing per batch instead of one per call. Occupancy tracks ρ
//!   by construction — no estimator, no tuning. The queue deadline
//!   travels in the wire header and an expired frame completes at
//!   batch-cut time without service; once a lane is batching, each
//!   tenant may hold at most its weight's share of that lane's slots.
//!   Frames already in a ring cannot be reordered, which is the price
//!   of amortizing the crossing — the better discipline for throughput
//!   on personalities whose crossing can be batched.

use sb_faultplane::{FaultHandle, FaultPoint};
use sb_observe::{InstantKind, Recorder, SpanKind};
use sb_sentinel::SloHandle;
use sb_sim::Cycles;
use sb_transport::{CallError, Request, RingTransport, TenantId, Transport};

use crate::{
    load::RequestFactory,
    stats::{RunStats, TenantStats},
    tenant::{AdmissionPolicy, Gate, TenantFabric, TenantRegistry},
};

/// How the dispatcher retries failed calls.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum re-attempts after the initial call.
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base << n` cycles (exponential,
    /// spent as lane idle time).
    pub backoff_base: Cycles,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 1_000,
        }
    }
}

/// Longest injected deadline-storm window, in cycles.
const STORM_WINDOW_MAX: Cycles = 20_000;

/// Dispatcher knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bound on admitted-but-unserved requests. Zero is legal: under
    /// [`AdmissionPolicy::Shed`] every arrival is rejected; under
    /// [`AdmissionPolicy::Block`] arrivals rendezvous directly with the
    /// earliest-free lane (no buffering). Unused by [`RingRuntime`],
    /// where the submission ring's own capacity (fixed at
    /// [`RingTransport`] construction) is the bound.
    pub queue_capacity: usize,
    /// What happens to arrivals that find the queue full.
    pub policy: AdmissionPolicy,
    /// Optional bound on time spent queued: a request that waits longer
    /// before service starts is dropped (counted in `shed_deadline`)
    /// without consuming lane time.
    pub queue_deadline: Option<Cycles>,
    /// Retry failed/timed-out calls with exponential backoff; a failure
    /// (crashed server, broken binding) additionally runs the transport's
    /// recovery path before the retry. `None` fails fast.
    pub retry: Option<RetryPolicy>,
    /// The chaos fault plane, for injected queue-deadline storms. `None`
    /// (the default) never injects.
    pub faults: Option<FaultHandle>,
    /// Trace recorder. The default is off (every emit site reduces to a
    /// flag check); pass `Recorder::new(..)` to trace a run. The
    /// dispatcher attaches it to the transport on construction, emits
    /// queue-wait spans on the serving lane, and admission/shed/retry
    /// instants on pseudo-lane `transport.lanes()` (the queue itself has
    /// no core).
    pub recorder: Recorder,
    /// Online SLO health tracking. `None` (the default) evaluates
    /// nothing; pass an [`SloHandle`] and the dispatcher records every
    /// outcome — completions with their arrival-to-done latency, and
    /// failures/timeouts/sheds as errors — as it happens.
    pub slo: Option<SloHandle>,
    /// The tenant contract registry. `None` (the default) builds a
    /// single-tenant fabric from `queue_capacity` and `policy`, which
    /// behaves exactly like one global queue; pass a registry to get
    /// per-tenant queues, weights, rate limits, and SLO-driven actions.
    pub tenants: Option<TenantRegistry>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 64,
            policy: AdmissionPolicy::Shed,
            queue_deadline: None,
            retry: None,
            faults: None,
            recorder: Recorder::off(),
            slo: None,
            tenants: None,
        }
    }
}

/// The six ways a request leaves the runtime.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Completed,
    TimedOut,
    Failed,
    /// Waited past its queue deadline; noticed on `lane`.
    ShedDeadline {
        lane: usize,
    },
    ShedQueueFull,
    ShedRateLimit,
}

/// The loop's state that does not depend on the lane-queue discipline:
/// configuration, storm windows, the tenant fabric, and the ledger of
/// the run in progress.
pub struct Core {
    cfg: RuntimeConfig,
    /// Active/past injected deadline storms as `[start, end]` windows of
    /// arrival time: requests arriving inside one see their effective
    /// queue deadline collapse to zero.
    storms: Vec<(Cycles, Cycles)>,
    /// Lives on the runtime (not the run) so per-tenant SLO state and
    /// the action log persist across runs and are inspectable afterwards
    /// via [`Runtime::fabric`].
    fabric: TenantFabric,
    /// The recorder pseudo-lane queue events are stamped on
    /// (`transport.lanes()` — the queue has no core of its own).
    queue_lane: usize,
    stats: RunStats,
    /// The run's per-tenant rows by fabric slot — `None` until the
    /// tenant arrives in *this* run — moved into `stats.tenants` by
    /// [`Runtime::finish`].
    rows: Vec<Option<TenantStats>>,
}

impl Core {
    /// The run's row for the tenant in fabric slot `slot`.
    #[inline]
    fn row(rows: &mut Vec<Option<TenantStats>>, slot: usize) -> &mut TenantStats {
        if slot >= rows.len() {
            rows.resize_with(slot + 1, || None);
        }
        rows[slot].get_or_insert_with(TenantStats::default)
    }

    /// Books `req`'s outcome at time `t`: the one place a request can
    /// complete and the one place it can be shed. Global and per-tenant
    /// counters, the trace instant, the SLO tracker and the fabric are
    /// updated together, in that order.
    #[inline]
    fn settle(&mut self, outcome: Outcome, req: &Request, t: Cycles) {
        let stats = &mut self.stats;
        let ts = Core::row(&mut self.rows, self.fabric.slot(req.tenant));
        let instant = match outcome {
            Outcome::Completed => {
                let latency = t - req.arrival;
                stats.completed += 1;
                ts.completed += 1;
                stats.latencies.push(latency);
                ts.latencies.push(latency);
                if let Some(slo) = &self.cfg.slo {
                    slo.complete(t, latency);
                }
                self.fabric.complete(req.tenant, t, latency);
                return;
            }
            Outcome::TimedOut => {
                stats.timed_out += 1;
                ts.timed_out += 1;
                None
            }
            Outcome::Failed => {
                stats.failed += 1;
                ts.failed += 1;
                None
            }
            Outcome::ShedDeadline { lane } => {
                stats.shed_deadline += 1;
                ts.shed_deadline += 1;
                Some((lane, InstantKind::ShedDeadline))
            }
            Outcome::ShedQueueFull => {
                stats.shed_queue_full += 1;
                ts.shed_queue_full += 1;
                Some((self.queue_lane, InstantKind::ShedQueueFull))
            }
            Outcome::ShedRateLimit => {
                stats.shed_rate_limit += 1;
                ts.shed_rate_limit += 1;
                Some((self.queue_lane, InstantKind::ShedRateLimit))
            }
        };
        if let Some((lane, kind)) = instant {
            self.cfg.recorder.instant(lane, kind, t, req.id);
        }
        if let Some(slo) = &self.cfg.slo {
            slo.error(t);
        }
        self.fabric.error(req.tenant, t);
    }

    /// Books a call error that will not be retried.
    fn settle_error(&mut self, err: &CallError, req: &Request, t: Cycles) {
        let outcome = match err {
            CallError::Timeout { .. } => Outcome::TimedOut,
            CallError::Failed(_) | CallError::CorrMismatch { .. } => Outcome::Failed,
        };
        self.settle(outcome, req, t);
    }

    /// Stamps `req`'s admission to the lane queue.
    #[inline]
    fn admitted(&self, req: &Request) {
        self.cfg.recorder.instant(
            self.queue_lane,
            InstantKind::QueueAdmit,
            req.arrival,
            req.id,
        );
    }

    /// Whether `tenant`'s arrivals wait for room instead of being shed.
    #[inline]
    fn blocks(&self, tenant: TenantId) -> bool {
        self.fabric.policy(tenant) == AdmissionPolicy::Block
    }

    /// The retry step after attempt number `attempt` of request `id`
    /// failed with `err` on `lane`. Returns `false` when the policy
    /// allows no further attempt. Otherwise: a failure (crashed server,
    /// broken binding) or a correlation mismatch (the lane holds a stale
    /// reply, so the serving path is suspect) first runs the transport's
    /// recovery path; then the lane idles through the exponential
    /// backoff, and the caller re-issues the request.
    fn retry<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        lane: usize,
        id: u64,
        err: &CallError,
        attempt: u32,
    ) -> bool {
        let Some(policy) = self.cfg.retry.as_ref().filter(|p| attempt < p.max_retries) else {
            return false;
        };
        let backoff = policy.backoff_base << attempt.min(32);
        let recorder = &self.cfg.recorder;
        if matches!(err, CallError::Failed(_) | CallError::CorrMismatch { .. })
            && transport.recover(lane)
        {
            self.stats.recoveries += 1;
            recorder.instant(lane, InstantKind::Recovery, transport.now(lane), id);
        }
        let t = transport.now(lane);
        transport.wait_until(lane, t.saturating_add(backoff));
        let woke = transport.now(lane);
        recorder.span(lane, SpanKind::Backoff, t, woke, id);
        recorder.instant(lane, InstantKind::Retry, woke, id);
        self.stats.retries += 1;
        true
    }

    #[inline]
    fn in_storm(&self, t: Cycles) -> bool {
        self.storms.iter().any(|&(s, e)| t >= s && t <= e)
    }

    /// At each arrival: maybe start a deadline storm at `t`. A storm is
    /// detected the moment it starts (the collapsed deadline is the
    /// dispatcher's own machinery) and recovered when the run's final
    /// drain has flushed every stale request.
    #[inline]
    fn maybe_storm(&mut self, t: Cycles) {
        let Some(f) = &self.cfg.faults else { return };
        if self.in_storm(t) {
            return; // One storm at a time.
        }
        if f.fire(FaultPoint::DeadlineStorm) {
            let len = 1 + f.draw(STORM_WINDOW_MAX);
            f.detected(FaultPoint::DeadlineStorm);
            self.storms.push((t, t.saturating_add(len)));
        }
    }

    /// Closes out a run: every storm window has passed and the lane
    /// queue has drained, so outstanding storm instances are recovered.
    fn settle_storms(&mut self) {
        if let Some(f) = &self.cfg.faults {
            if !self.storms.is_empty() {
                f.recover_all(FaultPoint::DeadlineStorm);
            }
        }
        self.storms.clear();
    }

    /// The queue deadline in force for an arrival at `arrival`, as a
    /// wait bound: zero inside a storm window.
    #[inline]
    fn queue_deadline(&self, arrival: Cycles) -> Option<Cycles> {
        if self.in_storm(arrival) {
            return Some(0);
        }
        self.cfg.queue_deadline
    }
}

/// What a lane queue did with an offered arrival.
pub enum Offer {
    /// Queued; carries the depth to high-water.
    Queued(usize),
    /// Served on the spot without being buffered.
    Served,
    /// No room, and the tenant's policy does not wait for any.
    Refused(Request),
}

/// Where admitted requests wait for a lane, and when they are bound to
/// one: the part of serving that differs between [`ServerRuntime`] and
/// [`RingRuntime`]. Crate-private: this module is not exported and the
/// trait is not re-exported.
pub trait LaneQueue {
    /// The transport whose lanes serve the queue.
    type Transport: Transport + ?Sized;

    /// The serving transport.
    fn transport(&mut self) -> &mut Self::Transport;

    /// Starts every piece of queued work that can start at or before
    /// `horizon`, earliest first, so nothing is issued out of order with
    /// an arrival at the horizon.
    fn pump(&mut self, core: &mut Core, horizon: Cycles);

    /// Takes a gated arrival. At a full queue, a tenant whose policy
    /// [`Core::blocks`] forces queued work through the lanes until the
    /// arrival fits; any other is refused.
    fn offer(&mut self, core: &mut Core, req: Request) -> Offer;
}

/// A dispatcher bound to a transport through lane queue `Q`: see
/// [`ServerRuntime`] and [`RingRuntime`] for the two ways to build one.
pub struct Runtime<Q: LaneQueue> {
    core: Core,
    lanes: Q,
}

/// The direct dispatcher: one central queue, requests bound to the
/// earliest-free lane when service starts.
pub type ServerRuntime<'a, T> = Runtime<Central<'a, T>>;

/// The ring-mode dispatcher: requests bound to a lane's submission ring
/// on arrival, drained by an adaptive doorbell.
pub type RingRuntime<'a, T> = Runtime<Rings<'a, T>>;

impl<'a, T: Transport + ?Sized> Runtime<Central<'a, T>> {
    /// Wraps `transport` with the dispatcher configuration, handing the
    /// configured recorder down so call-path spans and dispatcher events
    /// land in the same trace.
    pub fn new(transport: &'a mut T, cfg: RuntimeConfig) -> Self {
        let capacity = cfg.queue_capacity;
        Runtime::build(Central { transport }, cfg, capacity)
    }
}

impl<'a, T: Transport> Runtime<Rings<'a, T>> {
    /// Wraps `ring` with the dispatcher configuration. The
    /// `queue_capacity` knob is unused here — the submission ring's own
    /// capacity bounds admitted-but-unserved requests instead.
    pub fn new(ring: &'a mut RingTransport<T>, cfg: RuntimeConfig) -> Self {
        let lanes = Rings {
            last_submit: vec![0; ring.lanes()],
            held: vec![Vec::new(); ring.lanes()],
            ring,
            retried: Vec::new(),
        };
        Runtime::build(lanes, cfg, usize::MAX)
    }
}

impl<Q: LaneQueue> Runtime<Q> {
    /// `fabric_capacity` bounds the single tenant's queue when no
    /// registry is configured.
    fn build(mut lanes: Q, cfg: RuntimeConfig, fabric_capacity: usize) -> Self {
        let transport = lanes.transport();
        assert!(transport.lanes() > 0);
        transport.attach_recorder(cfg.recorder.clone());
        let registry = cfg
            .tenants
            .clone()
            .unwrap_or_else(|| TenantRegistry::single(fabric_capacity, cfg.policy));
        let core = Core {
            cfg,
            storms: Vec::new(),
            fabric: TenantFabric::new(registry),
            queue_lane: transport.lanes(),
            stats: RunStats::new(transport.label(), transport.lanes()),
            rows: Vec::new(),
        };
        Runtime { core, lanes }
    }

    /// The tenant fabric: per-tenant SLO health, quarantine state, and
    /// the SLO-burn action log accumulated over this runtime's runs.
    pub fn fabric(&self) -> &TenantFabric {
        &self.core.fabric
    }

    /// The latest lane clock.
    fn latest_clock(&mut self) -> Cycles {
        let transport = self.lanes.transport();
        (0..transport.lanes())
            .map(|l| transport.now(l))
            .max()
            .unwrap_or(0)
    }

    /// Opens a run and returns its epoch, the instant the server is
    /// ready: the latest lane clock. Transport setup (boot, registration,
    /// binary rewriting) runs on the same simulated cores that serve
    /// requests, so lane clocks are well past zero when a run starts;
    /// arrival times are offsets from this epoch, not from machine
    /// power-on.
    fn begin(&mut self) -> Cycles {
        // The copy meter's reading now; `finish` turns it into the delta.
        self.core.stats.bytes_copied = self.lanes.transport().bytes_copied();
        self.latest_clock()
    }

    /// One arrival at `t`: admitted to the lane queue, or shed at the
    /// door by the fabric's gate or a full lane queue.
    fn arrive(&mut self, t: Cycles, factory: &mut RequestFactory) {
        let Runtime { core, lanes } = self;
        core.stats.offered += 1;
        core.maybe_storm(t);
        lanes.pump(core, t);
        let req = factory.make(t, None);
        Core::row(&mut core.rows, core.fabric.slot(req.tenant)).offered += 1;
        if core.fabric.gate(req.tenant, t) != Gate::Admit {
            core.settle(Outcome::ShedRateLimit, &req, t);
            return;
        }
        match lanes.offer(core, req) {
            Offer::Queued(depth) => {
                core.stats.max_queue_depth = core.stats.max_queue_depth.max(depth);
            }
            Offer::Served => {}
            Offer::Refused(req) => core.settle(Outcome::ShedQueueFull, &req, t),
        }
    }

    /// Drains the lane queue, closes the run opened by [`Self::begin`]
    /// and hands back its statistics.
    fn finish(&mut self, start: Cycles) -> RunStats {
        self.lanes.pump(&mut self.core, Cycles::MAX);
        self.core.settle_storms();
        let end = self.latest_clock();
        let transport = self.lanes.transport();
        let fresh = RunStats::new(transport.label(), transport.lanes());
        let mut stats = std::mem::replace(&mut self.core.stats, fresh);
        stats.start = start;
        stats.end = end;
        stats.bytes_copied = transport.bytes_copied() - stats.bytes_copied;
        let fabric = &self.core.fabric;
        stats.tenants.extend(
            (self.core.rows.drain(..).enumerate())
                .filter_map(|(slot, row)| Some((fabric.tenant_at(slot), row?))),
        );
        if let Some(slo) = &self.core.cfg.slo {
            slo.tick(end);
        }
        self.core.fabric.tick(end);
        stats
    }

    /// Open-loop run: `arrivals` yields monotone arrival times relative to
    /// server readiness (Poisson in the benches, arbitrary sequences in
    /// the property tests); each arrival takes its operation from
    /// `factory`. Arrivals are independent of service progress — under
    /// overload the queue fills and the admission policy decides.
    pub fn run_open_loop<I>(&mut self, arrivals: I, factory: &mut RequestFactory) -> RunStats
    where
        I: IntoIterator<Item = Cycles>,
    {
        let epoch = self.begin();
        let mut first = None;
        let mut clock = 0;
        for t in arrivals {
            let t = t.saturating_add(epoch).max(clock); // Never backwards.
            clock = t;
            first.get_or_insert(t);
            self.arrive(t, factory);
        }
        self.finish(first.unwrap_or(0))
    }
}

/// The central-queue discipline: the fabric's per-tenant DRR queues
/// hold admitted requests, and each is bound to the earliest-free lane
/// only when its service starts.
pub struct Central<'a, T: Transport + ?Sized> {
    transport: &'a mut T,
}

impl<T: Transport + ?Sized> Central<'_, T> {
    /// The earliest-free lane and its clock.
    fn min_lane(&mut self) -> (usize, Cycles) {
        let mut best = (0, self.transport.now(0));
        for l in 1..self.transport.lanes() {
            let t = self.transport.now(l);
            if t < best.1 {
                best = (l, t);
            }
        }
        best
    }

    /// Runs `req` on lane `l` (idling the lane to the arrival first),
    /// applying the queue deadline, retrying under the policy, and
    /// booking the outcome.
    fn serve(&mut self, core: &mut Core, l: usize, req: &Request) {
        self.transport.wait_until(l, req.arrival);
        let start = self.transport.now(l);
        if start > req.arrival {
            // Time between arrival and service start is queueing delay —
            // recorded against the serving lane, outside the call span.
            core.cfg
                .recorder
                .span(l, SpanKind::QueueWait, req.arrival, start, req.id);
        }
        if core
            .queue_deadline(req.arrival)
            .is_some_and(|d| start - req.arrival > d)
        {
            core.settle(Outcome::ShedDeadline { lane: l }, req, start);
            return;
        }
        let mut attempt = 0;
        let result = loop {
            match self.transport.call(l, req) {
                Ok(_) => break Ok(()),
                Err(e) if core.retry(self.transport, l, req.id, &e, attempt) => attempt += 1,
                Err(e) => break Err(e),
            }
        };
        let done = self.transport.now(l);
        core.stats.busy[l] += done - start;
        match result {
            Ok(()) => core.settle(Outcome::Completed, req, done),
            Err(e) => core.settle_error(&e, req, done),
        }
    }
}

impl<T: Transport + ?Sized> LaneQueue for Central<'_, T> {
    type Transport = T;

    fn transport(&mut self) -> &mut T {
        self.transport
    }

    /// Starts queued requests in fabric (DRR) order until no lane frees
    /// up at or before `horizon`.
    fn pump(&mut self, core: &mut Core, horizon: Cycles) {
        while !core.fabric.is_empty() {
            let (l, t) = self.min_lane();
            if t > horizon {
                break;
            }
            let req = core.fabric.pop().expect("checked non-empty");
            self.serve(core, l, &req);
        }
    }

    fn offer(&mut self, core: &mut Core, req: Request) -> Offer {
        if core.fabric.is_full(req.tenant) {
            if !core.blocks(req.tenant) {
                return Offer::Refused(req);
            }
            if core.fabric.capacity(req.tenant) == 0 {
                // No slot can ever free: the arrival rendezvouses
                // directly with the earliest-free lane.
                let (l, _) = self.min_lane();
                self.serve(core, l, &req);
                return Offer::Served;
            }
            // Free a slot in this tenant's queue by force-running
            // fabric-scheduled requests on the earliest-free lane. DRR
            // rotation reaches every backlogged tenant, so the loop
            // always terminates.
            while core.fabric.is_full(req.tenant) {
                let (l, _) = self.min_lane();
                let r = core.fabric.pop().expect("full queue implies work");
                self.serve(core, l, &r);
            }
        }
        core.admitted(&req);
        core.fabric.push(req);
        Offer::Queued(core.fabric.len())
    }
}

/// The per-lane-rings discipline: the submission ring *is* the queue,
/// and — since a completion hands its request back — the ledger of
/// what is in flight too. The fabric's gate and SLO machinery are used;
/// its queues are not.
pub struct Rings<'a, T: Transport> {
    ring: &'a mut RingTransport<T>,
    /// Latest submit stamp per lane — a doorbell never rings before the
    /// frames it would drain were submitted.
    last_submit: Vec<Cycles>,
    /// `(corr, attempts so far)` of the in-flight requests that are
    /// resubmissions; a request on its first attempt is not listed.
    retried: Vec<(u64, u32)>,
    /// Submission slots currently held, `[lane][tenant slot]`.
    held: Vec<Vec<usize>>,
}

impl<T: Transport> Rings<'_, T> {
    /// Whether a submit by the tenant in `slot` on `lane` would exceed
    /// its batch share: its weight's share of the ring (among the
    /// tenants seen so far), at least one slot. Only binds once the
    /// lane is batching (occupancy at the budget) — an uncontended ring
    /// is work-conserving and any tenant may fill it, and with a single
    /// tenant the share is the whole ring.
    fn over_share(&self, core: &Core, lane: usize, slot: usize) -> bool {
        let cfg = self.ring.config();
        if self.ring.sq_len(lane) < cfg.batch_budget.max(1) {
            return false;
        }
        let held = self.held[lane].get(slot).copied().unwrap_or(0);
        held >= core.fabric.share(slot, cfg.capacity)
    }

    /// Submits `req` to `lane` with its wire deadline: the queue
    /// deadline as an absolute cycle stamp (0 = none), so inside a storm
    /// window the frame expires the moment anything delays its batch.
    fn submit(&mut self, core: &Core, lane: usize, req: &Request) -> bool {
        let deadline = core
            .queue_deadline(req.arrival)
            .map_or(0, |d| req.arrival.saturating_add(d).max(1));
        self.ring.submit_with_deadline(lane, req, deadline).is_ok()
    }

    /// Books a frame submitted at `at` by the tenant in `slot`.
    fn track(&mut self, lane: usize, slot: usize, at: Cycles) {
        self.last_submit[lane] = self.last_submit[lane].max(at);
        let held = &mut self.held[lane];
        if slot >= held.len() {
            held.resize(slot + 1, 0);
        }
        held[slot] += 1;
    }

    /// Rings `lane`'s doorbell (no earlier than its frames' submit
    /// stamps), charges the lane's busy time, and reaps every posted
    /// completion — resubmitting retriable failures under the retry
    /// policy.
    fn drain_lane(&mut self, core: &mut Core, lane: usize) {
        self.ring.wait_until(lane, self.last_submit[lane]);
        let before = self.ring.now(lane);
        self.ring.doorbell(lane);
        core.stats.busy[lane] += self.ring.now(lane) - before;

        let mut resubmit: Vec<(Request, u32)> = Vec::new();
        while let Some(c) = self.ring.pop_completion(lane) {
            let now = self.ring.now(lane);
            if let Some(h) = self.held[lane].get_mut(core.fabric.slot(c.req.tenant)) {
                *h = h.saturating_sub(1);
            }
            // Attempts before this one; the entry is re-listed if the
            // request goes round again.
            let listed = self.retried.iter().position(|&(id, _)| id == c.corr);
            let attempts = listed.map_or(0, |at| self.retried.swap_remove(at).1);
            match &c.result {
                // Expired at batch-cut time — burned no service time,
                // exactly like the central queue's start-time check.
                _ if c.expired => core.settle(Outcome::ShedDeadline { lane }, &c.req, now),
                Ok(_) => core.settle(Outcome::Completed, &c.req, now),
                Err(e) if core.retry(self.ring, lane, c.corr, e, attempts) => {
                    resubmit.push((c.req, attempts + 1));
                }
                Err(e) => core.settle_error(e, &c.req, now),
            }
        }
        // Re-queue retries. The doorbell freed at least as many slots
        // as it posted completions, so these always fit; a refused
        // resubmission would be a bookkeeping bug, not load. Retries may
        // briefly exceed a tenant's share; the cap applies to fresh
        // admissions only.
        for (req, attempts) in resubmit {
            let t = self.ring.now(lane);
            if self.submit(core, lane, &req) {
                let slot = core.fabric.slot(req.tenant);
                self.track(lane, slot, t);
                self.retried.push((req.id, attempts));
            } else {
                core.settle(Outcome::Failed, &req, t);
            }
        }
    }
}

impl<T: Transport> LaneQueue for Rings<'_, T> {
    type Transport = RingTransport<T>;

    fn transport(&mut self) -> &mut RingTransport<T> {
        self.ring
    }

    /// Latency-mode drains: while any lane with pending frames would go
    /// idle at or before `horizon`, drain it — earliest lane first.
    fn pump(&mut self, core: &mut Core, horizon: Cycles) {
        loop {
            let mut best: Option<(Cycles, usize)> = None;
            for l in 0..self.ring.lanes() {
                if self.ring.sq_len(l) == 0 {
                    continue;
                }
                let at = self.ring.now(l).max(self.last_submit[l]);
                if at <= horizon && best.is_none_or(|(bt, _)| at < bt) {
                    best = Some((at, l));
                }
            }
            let Some((_, l)) = best else { break };
            self.drain_lane(core, l);
        }
        debug_assert!(
            horizon < Cycles::MAX
                || (0..self.ring.lanes()).all(|l| self.ring.submitted(l) == self.ring.acked(l)),
            "every submission reaps exactly one completion"
        );
    }

    fn offer(&mut self, core: &mut Core, req: Request) -> Offer {
        // Least-occupied ring first, earliest clock breaking ties.
        let lane = (0..self.ring.lanes())
            .min_by_key(|&l| (self.ring.sq_len(l), self.ring.now(l)))
            .expect("at least one lane");
        let slot = core.fabric.slot(req.tenant);
        // A tenant past its batch share is refused exactly like a full
        // ring — the slots it cannot take stay open for others.
        let mut placed = !self.over_share(core, lane, slot) && self.submit(core, lane, &req);
        if !placed && core.blocks(req.tenant) {
            // Pump the lane until a slot frees and the tenant is back
            // inside its share (retries are bounded, so this
            // terminates). An oversized frame still cannot be placed.
            while self.ring.sq_len(lane) >= self.ring.config().capacity
                || self.over_share(core, lane, slot)
            {
                self.drain_lane(core, lane);
            }
            placed = self.submit(core, lane, &req);
        }
        if !placed {
            return Offer::Refused(req);
        }
        core.admitted(&req);
        let t = req.arrival;
        self.track(lane, slot, t);
        let depth = self.ring.sq_len(lane);
        // An *idle* lane whose ring just reached the budget is drained
        // now — one crossing, one full batch. A busy lane keeps
        // accumulating: its slots only free once the server consumes
        // them, so back-pressure (and shedding) works exactly like the
        // central queue.
        if depth >= self.ring.config().batch_budget.max(1)
            && self.ring.now(lane).max(self.last_submit[lane]) <= t
        {
            self.drain_lane(core, lane);
        }
        Offer::Queued(depth)
    }
}

#[cfg(test)]
mod tests {
    use sb_transport::{FixedServiceTransport, RingConfig};
    use sb_ycsb::WorkloadSpec;

    use super::*;

    fn factory() -> RequestFactory {
        RequestFactory::new(WorkloadSpec::ycsb_a(1000, 64), 64)
    }

    fn cfg(capacity: usize, policy: AdmissionPolicy) -> RuntimeConfig {
        RuntimeConfig {
            queue_capacity: capacity,
            policy,
            ..RuntimeConfig::default()
        }
    }

    fn ring(
        lanes: usize,
        service: Cycles,
        capacity: usize,
        budget: usize,
    ) -> RingTransport<FixedServiceTransport> {
        RingTransport::new(
            FixedServiceTransport::new(lanes, service),
            RingConfig {
                capacity,
                batch_budget: budget,
                slot_bytes: 4096,
            },
        )
    }

    /// offered must equal the sum of all outcome counters.
    fn assert_conserved(s: &RunStats) {
        assert!(s.conserved(), "request conservation violated: {s:?}");
    }

    #[test]
    fn underload_completes_everything_with_flat_latency() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(16, AdmissionPolicy::Shed));
        let arrivals: Vec<Cycles> = (0..50).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.completed, 50);
        assert_eq!(s.shed(), 0);
        assert_eq!(s.p50(), 100, "no queueing at half load");
        assert!(s.bytes_copied > 0, "completed calls meter their encode");
        assert_conserved(&s);
    }

    #[test]
    fn overload_sheds_and_respects_queue_bound() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(&mut e, cfg(4, AdmissionPolicy::Shed));
        let arrivals: Vec<Cycles> = (0..200).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert!(s.shed_queue_full > 0, "10x overload must shed");
        assert!(s.max_queue_depth <= 4);
        assert!(s.completed > 0);
        assert_conserved(&s);
    }

    #[test]
    fn block_policy_never_sheds_but_latency_grows() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(&mut e, cfg(4, AdmissionPolicy::Block));
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.shed_queue_full, 0);
        assert_eq!(s.completed, 100);
        assert!(s.p99() > 50_000, "blocked waits show up in tail latency");
        assert_conserved(&s);
    }

    #[test]
    fn queue_deadline_drops_stale_requests() {
        let mut e = FixedServiceTransport::new(1, 1000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 16,
                policy: AdmissionPolicy::Shed,
                queue_deadline: Some(500),
                ..RuntimeConfig::default()
            },
        );
        let s = rt.run_open_loop(vec![0, 1, 2, 3], &mut factory());
        assert_eq!(s.completed, 1, "only the first request starts in time");
        assert_eq!(s.shed_deadline, 3);
        assert_conserved(&s);
    }

    #[test]
    fn zero_capacity_shed_rejects_everything() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(0, AdmissionPolicy::Shed));
        let s = rt.run_open_loop(vec![0, 100, 200, 300], &mut factory());
        assert_eq!(s.completed, 0);
        assert_eq!(s.shed_queue_full, 4, "no buffer, no admission");
        assert_conserved(&s);
    }

    #[test]
    fn zero_capacity_block_rendezvouses_directly() {
        let mut e = FixedServiceTransport::new(2, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(0, AdmissionPolicy::Block));
        let arrivals: Vec<Cycles> = (0..40).map(|i| i * 50).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.completed, 40, "every arrival is handed to a lane");
        assert_eq!(s.shed(), 0);
        assert_eq!(s.max_queue_depth, 0, "nothing is ever buffered");
        assert_conserved(&s);
    }

    #[test]
    fn zero_capacity_block_serves_a_burst_on_one_lane() {
        let mut e = FixedServiceTransport::new(1, 100);
        let mut rt = ServerRuntime::new(&mut e, cfg(0, AdmissionPolicy::Block));
        let s = rt.run_open_loop(vec![0; 30], &mut factory());
        assert_eq!(s.offered, 30);
        assert_eq!(s.completed, 30, "each arrival waits for the one lane");
        assert_eq!(s.max_queue_depth, 0, "nothing is ever buffered");
        assert_conserved(&s);
    }

    #[test]
    fn capacity_one_serializes_under_both_policies() {
        for policy in [AdmissionPolicy::Shed, AdmissionPolicy::Block] {
            let mut e = FixedServiceTransport::new(1, 1000);
            let mut rt = ServerRuntime::new(&mut e, cfg(1, policy));
            let arrivals: Vec<Cycles> = (0..50).map(|i| i * 10).collect();
            let s = rt.run_open_loop(arrivals, &mut factory());
            assert!(s.max_queue_depth <= 1);
            assert_conserved(&s);
            match policy {
                AdmissionPolicy::Shed => {
                    assert!(s.shed_queue_full > 0, "one slot under 100x load sheds")
                }
                AdmissionPolicy::Block => {
                    assert_eq!(s.shed_queue_full, 0);
                    assert_eq!(s.completed, 50);
                }
            }
        }
    }

    #[test]
    fn deadline_expiry_races_admission() {
        // Capacity 1 + a tight queue deadline: requests admitted into the
        // single slot can expire before a lane frees. Conservation must
        // hold and expired requests must burn no lane time.
        let mut e = FixedServiceTransport::new(1, 10_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 1,
                policy: AdmissionPolicy::Shed,
                queue_deadline: Some(100),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..30).map(|i| i * 50).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "queued requests must expire");
        assert!(s.completed >= 1, "the first request always starts in time");
        // Expired requests consume no service time: busy cycles must be
        // exactly completed * service.
        assert_eq!(s.busy[0], s.completed * 10_000);
    }

    #[test]
    fn retry_policy_recovers_injected_crashes() {
        use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
        use sb_transport::Faulty;

        let h = FaultHandle::new(0xc4a5, FaultMix::none().with(FaultPoint::HandlerPanic, 800));
        let mut e = Faulty::new(FixedServiceTransport::new(2, 100), h.clone(), 1_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 32,
                retry: Some(RetryPolicy::default()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..300).map(|i| i * 200).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.retries > 0, "an 8% crash rate over 300 calls must retry");
        assert!(s.recoveries > 0, "crashed lanes must be repaired");
        assert!(
            s.completed > s.offered - s.offered / 10,
            "retry-with-recovery should complete nearly everything: {s:?}"
        );
        // Close any lane still dead at end-of-run, then audit the ledger.
        h.disarm();
        for l in 0..2 {
            e.recover(l);
        }
        let r = h.report();
        assert!(r.injected() > 0, "the mix must actually have fired");
        assert_eq!(r.leaked(), 0, "{r}");
    }

    #[test]
    fn retries_fail_fast_without_a_policy() {
        use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
        use sb_transport::Faulty;

        // Crash on (nearly) every call with no retry policy: failures
        // surface directly and the run conserves through `failed`.
        let h = FaultHandle::new(7, FaultMix::none().with(FaultPoint::HandlerPanic, 10_000));
        let mut e = Faulty::new(FixedServiceTransport::new(1, 100), h.clone(), 1_000);
        let mut rt = ServerRuntime::new(&mut e, cfg(8, AdmissionPolicy::Shed));
        let s = rt.run_open_loop(vec![0, 500, 1_000], &mut factory());
        assert_eq!(s.completed, 0);
        assert_eq!(s.failed, 3);
        assert_eq!(s.retries, 0);
        assert_conserved(&s);
    }

    #[test]
    fn slo_tracker_sees_every_outcome_class() {
        use sb_sentinel::{SloHandle, SloSpec};

        // One slow lane, a tiny queue, and a queue deadline: the run
        // produces completions, queue-full sheds, and deadline sheds —
        // all of which must land in the tracker.
        let slo = SloHandle::new(SloSpec {
            latency_objective: 1_500,
            ..SloSpec::default()
        });
        let mut e = FixedServiceTransport::new(1, 1_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 2,
                policy: AdmissionPolicy::Shed,
                queue_deadline: Some(5_000),
                slo: Some(slo.clone()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        let h = slo.health();
        assert_eq!(
            h.good + h.bad,
            s.offered,
            "every offered request reaches the tracker: {h:?} vs {s:?}"
        );
        assert!(h.bad >= s.shed(), "sheds are never good");
        // The sustained overload must trip the burn-rate breach.
        assert!(slo.breached(), "90% sheds must breach: {h:?}");
    }

    #[test]
    fn deadline_storms_shed_and_settle_clean() {
        use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};

        let h = FaultHandle::new(
            0x5708_0001,
            FaultMix::none().with(FaultPoint::DeadlineStorm, 2_500),
        );
        let mut e = FixedServiceTransport::new(1, 1_000);
        let mut rt = ServerRuntime::new(
            &mut e,
            RuntimeConfig {
                queue_capacity: 64,
                // Generous in calm weather; storms collapse it to zero.
                queue_deadline: Some(1_000_000),
                faults: Some(h.clone()),
                ..RuntimeConfig::default()
            },
        );
        // 4x overload on one lane: every queued request waits, so any
        // arrival inside a storm window is past its (zeroed) deadline.
        let arrivals: Vec<Cycles> = (0..400).map(|i| i * 250).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "storm windows must shed stale work");
        assert!(s.completed > 0, "calm stretches still complete");
        let r = h.report();
        assert!(r.injected() > 0, "storms must actually start");
        assert_eq!(r.leaked(), 0, "settle_storms closes every window: {r}");
    }

    #[test]
    fn underload_drains_eagerly_with_direct_latency() {
        let mut r = ring(2, 100, 16, 8);
        let mut rt = RingRuntime::new(&mut r, RuntimeConfig::default());
        let arrivals: Vec<Cycles> = (0..50).map(|i| i * 100).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.completed, 50);
        assert_eq!(s.shed(), 0);
        assert_eq!(s.p50(), 100, "shallow rings must not add batching delay");
        assert_conserved(&s);
    }

    #[test]
    fn overload_batches_and_sheds_at_ring_capacity() {
        let mut r = ring(1, 1000, 4, 4);
        let mut rt = RingRuntime::new(&mut r, RuntimeConfig::default());
        let arrivals: Vec<Cycles> = (0..200).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert!(s.shed_queue_full > 0, "10x overload must shed at the ring");
        assert!(s.max_queue_depth <= 4);
        assert!(s.completed > 0);
        assert_conserved(&s);
    }

    #[test]
    fn block_policy_pumps_instead_of_shedding() {
        let mut r = ring(1, 1000, 4, 4);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                policy: AdmissionPolicy::Block,
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..100).map(|i| i * 10).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_eq!(s.shed_queue_full, 0);
        assert_eq!(s.completed, 100);
        assert_conserved(&s);
    }

    #[test]
    fn ring_deadline_expires_stale_frames_without_service() {
        let mut r = ring(1, 10_000, 16, 8);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                queue_deadline: Some(100),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..30).map(|i| i * 50).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "queued frames must expire");
        assert!(s.completed >= 1);
        assert_eq!(
            s.busy[0],
            s.completed * 10_000,
            "expired frames burn no lane time"
        );
    }

    #[test]
    fn storms_collapse_ring_deadlines_and_settle() {
        use sb_faultplane::{FaultHandle, FaultMix};

        let h = FaultHandle::new(
            0x5708_0002,
            FaultMix::none().with(FaultPoint::DeadlineStorm, 2_500),
        );
        let mut r = ring(1, 1_000, 64, 8);
        let mut rt = RingRuntime::new(
            &mut r,
            RuntimeConfig {
                queue_deadline: Some(1_000_000),
                faults: Some(h.clone()),
                ..RuntimeConfig::default()
            },
        );
        let arrivals: Vec<Cycles> = (0..400).map(|i| i * 250).collect();
        let s = rt.run_open_loop(arrivals, &mut factory());
        assert_conserved(&s);
        assert!(s.shed_deadline > 0, "storm windows must expire stale work");
        assert!(s.completed > 0);
        let rep = h.report();
        assert!(rep.injected() > 0);
        assert_eq!(rep.leaked(), 0, "{rep}");
    }

    /// Weights are configuration, and configuration can be anything:
    /// sums and products of weights near `u64::MAX` must saturate or
    /// widen, not overflow — in neither discipline may they panic or
    /// wrap a tenant's share round to someone else's.
    #[test]
    fn near_max_tenant_weights_saturate_instead_of_overflowing() {
        use crate::tenant::TenantSpec;

        let spec = |weight| TenantSpec {
            weight,
            queue_capacity: 4,
            ..TenantSpec::default()
        };
        let config = || RuntimeConfig {
            tenants: Some(
                TenantRegistry::new(spec(1))
                    .with(0, spec(u64::MAX))
                    .with(1, spec(u64::MAX / 2))
                    .with(2, spec(1)),
            ),
            ..RuntimeConfig::default()
        };
        let zipf =
            || RequestFactory::with_zipf_tenants(WorkloadSpec::ycsb_a(1000, 64), 64, 4, 0x5eed);
        let check = |s: &RunStats| {
            assert_conserved(s);
            assert!(s.tenants_conserved());
            assert_eq!(s.tenants.len(), 4);
            for (id, t) in &s.tenants {
                assert!(t.completed > 0, "tenant {id} was starved outright: {t:?}");
            }
        };

        // Rings, 10x overloaded so every lane is batching and the
        // share cap binds: the two weight-1 tenants still get the one
        // slot a share rounds up to.
        let mut r = ring(1, 1_000, 4, 2);
        let mut rt = RingRuntime::new(&mut r, config());
        let s = rt.run_open_loop((0..2_000).map(|i| i * 100), &mut zipf());
        assert!(
            s.shed_queue_full > 0,
            "the share cap and the ring must bind"
        );
        check(&s);
        for slot in 0..4 {
            assert!((1..=4).contains(&rt.fabric().share(slot, 4)));
        }

        // The central queue, where the weights feed the DRR deficit.
        let mut e = FixedServiceTransport::new(1, 500);
        let mut rt = ServerRuntime::new(&mut e, config());
        check(&rt.run_open_loop((0..2_000).map(|i| i * 600), &mut zipf()));
    }

    #[test]
    fn light_ring_load_reads_the_direct_latency() {
        // One arrival every 80 cycles (62% of 2 lanes x 100 cycles) into
        // 16-slot rings: nothing is refused, and every offered request
        // is accounted for exactly once.
        let mut r = ring(2, 100, 16, 8);
        let mut rt = RingRuntime::new(&mut r, RuntimeConfig::default());
        let s = rt.run_open_loop((0..200).map(|i| i * 80), &mut factory());
        assert_eq!(s.offered, 200);
        assert_eq!(s.completed, 200);
        assert_eq!(s.shed(), 0, "light load cannot overrun the rings");
        assert_conserved(&s);
        assert!(s.tenants_conserved());

        // Arrivals ten services apart: an idle ring drains at once, so
        // the rings read the direct loop's p50.
        let light = || (0..100).map(|i| i * 1_000);
        let mut e = FixedServiceTransport::new(2, 100);
        let direct = ServerRuntime::new(&mut e, cfg(16, AdmissionPolicy::Shed))
            .run_open_loop(light(), &mut factory());
        let mut r = ring(2, 100, 16, 8);
        let rings = RingRuntime::new(&mut r, RuntimeConfig::default())
            .run_open_loop(light(), &mut factory());
        assert_eq!(rings.completed, 100);
        assert_eq!(
            rings.p50(),
            100,
            "shallow rings must not add batching delay"
        );
        assert_eq!(rings.p50(), direct.p50());
        assert_conserved(&rings);
    }
}

/// The rings discipline with its bookkeeping written the naive way — a
/// `HashMap` of every outstanding request keyed by corr and an ordered
/// map of slots held per `(lane, tenant)` — kept as the executable
/// specification of [`Rings`]: the property below runs both over
/// arbitrary arrivals, tenant contracts, ring geometries, deadlines,
/// retry policies and injected faults and requires identical
/// [`RunStats`], fabric action logs and fault ledgers.
#[cfg(test)]
mod model {
    use std::collections::{BTreeMap, HashMap};

    use proptest::prelude::*;
    use sb_faultplane::FaultMix;
    use sb_sentinel::SloSpec;
    use sb_transport::{Faulty, FixedServiceTransport, RingConfig};
    use sb_ycsb::WorkloadSpec;

    use super::*;
    use crate::tenant::{RateLimit, TenantSpec};

    struct ModelRings<'a, T: Transport> {
        ring: &'a mut RingTransport<T>,
        inflight: HashMap<u64, (Request, u32)>,
        last_submit: Vec<Cycles>,
        held: BTreeMap<(usize, TenantId), usize>,
    }

    impl<T: Transport> ModelRings<'_, T> {
        fn over_share(&self, core: &Core, lane: usize, id: TenantId) -> bool {
            let cfg = self.ring.config();
            if self.ring.sq_len(lane) < cfg.batch_budget.max(1) {
                return false;
            }
            let registry = core
                .cfg
                .tenants
                .as_ref()
                .expect("the property configures one");
            let weight = registry.weight(id) as u128;
            let seen = core.fabric.seen_weight().max(1) as u128;
            let share = (cfg.capacity as u128 * weight / seen).max(1);
            self.held.get(&(lane, id)).copied().unwrap_or(0) as u128 >= share
        }

        fn submit(&mut self, core: &Core, lane: usize, req: &Request) -> bool {
            let deadline = core
                .queue_deadline(req.arrival)
                .map_or(0, |d| req.arrival.saturating_add(d).max(1));
            self.ring.submit_with_deadline(lane, req, deadline).is_ok()
        }

        fn track(&mut self, lane: usize, req: Request, attempts: u32, at: Cycles) {
            self.last_submit[lane] = self.last_submit[lane].max(at);
            *self.held.entry((lane, req.tenant)).or_insert(0) += 1;
            self.inflight.insert(req.id, (req, attempts));
        }

        fn drain_lane(&mut self, core: &mut Core, lane: usize) {
            self.ring.wait_until(lane, self.last_submit[lane]);
            let before = self.ring.now(lane);
            self.ring.doorbell(lane);
            core.stats.busy[lane] += self.ring.now(lane) - before;

            let mut resubmit: Vec<(Request, u32)> = Vec::new();
            while let Some(c) = self.ring.pop_completion(lane) {
                let now = self.ring.now(lane);
                let (req, attempts) = self
                    .inflight
                    .remove(&c.corr)
                    .expect("completion for a tracked corr");
                *self.held.get_mut(&(lane, req.tenant)).expect("held slot") -= 1;
                match c.result {
                    _ if c.expired => core.settle(Outcome::ShedDeadline { lane }, &req, now),
                    Ok(_) => core.settle(Outcome::Completed, &req, now),
                    Err(e) if core.retry(self.ring, lane, req.id, &e, attempts) => {
                        resubmit.push((req, attempts + 1));
                    }
                    Err(e) => core.settle_error(&e, &req, now),
                }
            }
            for (req, attempts) in resubmit {
                let t = self.ring.now(lane);
                assert!(
                    self.submit(core, lane, &req),
                    "a freed slot takes the retry"
                );
                self.track(lane, req, attempts, t);
            }
        }
    }

    impl<T: Transport> LaneQueue for ModelRings<'_, T> {
        type Transport = RingTransport<T>;

        fn transport(&mut self) -> &mut RingTransport<T> {
            self.ring
        }

        fn pump(&mut self, core: &mut Core, horizon: Cycles) {
            loop {
                let mut best: Option<(Cycles, usize)> = None;
                for l in 0..self.ring.lanes() {
                    if self.ring.sq_len(l) == 0 {
                        continue;
                    }
                    let at = self.ring.now(l).max(self.last_submit[l]);
                    if at <= horizon && best.is_none_or(|(bt, _)| at < bt) {
                        best = Some((at, l));
                    }
                }
                let Some((_, l)) = best else { break };
                self.drain_lane(core, l);
            }
            assert!(horizon < Cycles::MAX || self.inflight.is_empty());
        }

        fn offer(&mut self, core: &mut Core, req: Request) -> Offer {
            let lane = (0..self.ring.lanes())
                .min_by_key(|&l| (self.ring.sq_len(l), self.ring.now(l)))
                .expect("at least one lane");
            let mut placed =
                !self.over_share(core, lane, req.tenant) && self.submit(core, lane, &req);
            if !placed && core.blocks(req.tenant) {
                while self.ring.sq_len(lane) >= self.ring.config().capacity
                    || self.over_share(core, lane, req.tenant)
                {
                    self.drain_lane(core, lane);
                }
                placed = self.submit(core, lane, &req);
            }
            if !placed {
                return Offer::Refused(req);
            }
            core.admitted(&req);
            let t = req.arrival;
            self.track(lane, req, 0, t);
            let depth = self.ring.sq_len(lane);
            if depth >= self.ring.config().batch_budget.max(1)
                && self.ring.now(lane).max(self.last_submit[lane]) <= t
            {
                self.drain_lane(core, lane);
            }
            Offer::Queued(depth)
        }
    }

    /// The tenant ids a schedule draws from: dense small ids plus the
    /// two ends of the id space.
    const IDS: [TenantId; 6] = [0, 1, 2, 3, 300, TenantId::MAX];

    #[derive(Debug, Clone)]
    struct Case {
        lanes: usize,
        ring: RingConfig,
        gaps: Vec<Cycles>,
        schedule: Vec<TenantId>,
        /// Per entry of `IDS`: weight, blocking, rate-limited.
        contracts: Vec<(u64, bool, bool)>,
        queue_deadline: Option<Cycles>,
        retry: Option<RetryPolicy>,
        /// Per-10k rates of handler panics, hangs and deadline storms.
        faults: (u32, u32, u32),
        fault_seed: u64,
    }

    fn case() -> impl Strategy<Value = Case> {
        let geometry = (
            1usize..4,
            prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(16usize)],
            prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        );
        let load = (
            proptest::collection::vec(0u64..260, 1..220),
            proptest::collection::vec(0usize..IDS.len(), 220..221),
            proptest::collection::vec((1u64..6, any::<bool>(), any::<bool>()), 6..7),
        );
        let policy = (
            prop_oneof![Just(None), Just(Some(0u64)), Just(Some(400u64))],
            prop_oneof![
                Just(None),
                (0u32..4, 1u64..500).prop_map(|(max_retries, backoff_base)| Some(RetryPolicy {
                    max_retries,
                    backoff_base
                }))
            ],
            (
                prop_oneof![Just(0u32), Just(400u32), Just(3_000u32)],
                prop_oneof![Just(0u32), Just(300u32)],
                prop_oneof![Just(0u32), Just(500u32)],
            ),
            any::<u64>(),
        );
        (geometry, load, policy).prop_map(
            |(
                (lanes, capacity, batch_budget),
                (gaps, schedule, contracts),
                (queue_deadline, retry, faults, fault_seed),
            )| Case {
                lanes,
                ring: RingConfig {
                    capacity,
                    batch_budget,
                    slot_bytes: 4096,
                },
                gaps,
                schedule: schedule.into_iter().map(|i| IDS[i]).collect(),
                contracts,
                queue_deadline,
                retry,
                faults,
                fault_seed,
            },
        )
    }

    fn registry(contracts: &[(u64, bool, bool)]) -> TenantRegistry {
        let slo = SloSpec {
            latency_objective: 600,
            error_budget: 0.05,
            fast_window: 2_000,
            slow_window: 20_000,
            fast_burn: 4.0,
            slow_burn: 2.0,
        };
        let mut reg = TenantRegistry::default();
        for (&id, &(weight, block, limited)) in IDS.iter().zip(contracts) {
            reg = reg.with(
                id,
                TenantSpec {
                    weight,
                    queue_capacity: 8,
                    policy: if block {
                        AdmissionPolicy::Block
                    } else {
                        AdmissionPolicy::Shed
                    },
                    rate: limited.then_some(RateLimit {
                        per_mcycle: 2_000.0,
                        burst: 3.0,
                    }),
                    slo: Some(slo),
                },
            );
        }
        reg
    }

    /// Everything a run leaves behind, rendered for comparison: every
    /// `RunStats` field and tenant row, the fabric's action log, the
    /// fault ledger and the ring's own submit/ack ledger.
    fn run(case: &Case, model: bool) -> String {
        let (panics, hangs, storms) = case.faults;
        let faults = FaultHandle::new(
            case.fault_seed,
            FaultMix::none()
                .with(FaultPoint::HandlerPanic, panics)
                .with(FaultPoint::HandlerHang, hangs)
                .with(FaultPoint::DeadlineStorm, storms),
        );
        let inner = Faulty::new(
            FixedServiceTransport::new(case.lanes, 100),
            faults.clone(),
            700,
        );
        let mut ring = RingTransport::new(inner, case.ring);
        let cfg = RuntimeConfig {
            queue_deadline: case.queue_deadline,
            retry: case.retry.clone(),
            faults: Some(faults.clone()),
            tenants: Some(registry(&case.contracts)),
            ..RuntimeConfig::default()
        };
        let mut factory = RequestFactory::with_tenant_schedule(
            WorkloadSpec::ycsb_a(1_000, 64),
            48,
            case.schedule.clone(),
        );
        let arrivals = case.gaps.iter().scan(0, |t, g| {
            *t += g;
            Some(*t)
        });
        fn drive<Q: LaneQueue>(
            mut rt: Runtime<Q>,
            arrivals: impl Iterator<Item = Cycles>,
            factory: &mut RequestFactory,
        ) -> String {
            let stats = rt.run_open_loop(arrivals, factory);
            assert!(stats.tenants_conserved() && stats.conserved(), "{stats:?}");
            format!("{stats:?}\n{:?}", rt.fabric().actions())
        }
        let out = if model {
            let lanes = ModelRings {
                last_submit: vec![0; ring.lanes()],
                ring: &mut ring,
                inflight: HashMap::new(),
                held: BTreeMap::new(),
            };
            drive(
                Runtime::build(lanes, cfg, usize::MAX),
                arrivals,
                &mut factory,
            )
        } else {
            drive(RingRuntime::new(&mut ring, cfg), arrivals, &mut factory)
        };
        let ledger: Vec<(u64, u64)> = (0..case.lanes)
            .map(|l| (ring.submitted(l), ring.acked(l)))
            .collect();
        format!("{out}\n{:?}\n{ledger:?}", faults.report())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn rings_match_the_naive_bookkeeping(case in case()) {
            prop_assert_eq!(run(&case, false), run(&case, true));
        }
    }
}
