//! The tenant fabric: per-tenant weighted-fair lanes behind one server.
//!
//! One global FIFO gives every arrival the same queue — which means one
//! tenant's storm starves everyone behind it. The serving path instead
//! queues through a **fabric** of per-tenant bounded queues scheduled by
//! deficit round robin:
//!
//! - **Admission** is per tenant: a token-bucket [`RateLimit`] caps a
//!   tenant's sustained arrival rate (storms shed at the door, before
//!   touching any queue), an active quarantine window sheds everything,
//!   and each tenant's queue has its own capacity bound and
//!   [`AdmissionPolicy`].
//! - **Scheduling** is deficit round robin over the tenants with queued
//!   work: each visit recharges a tenant's deficit by `quantum x
//!   weight`, and the tenant serves requests until the deficit runs dry,
//!   then rotates to the tail. Weights come from the [`TenantSpec`]
//!   registry; a lone tenant degenerates to exact FIFO, so single-tenant
//!   runs behave precisely like the old queue.
//! - **SLO actions** close the loop: each tenant may carry its own
//!   [`SloSpec`], and on the edge of a breach episode the fabric acts —
//!   a tenant breaching *because its own arrivals are being rate-shed*
//!   is an aggressor and gets a quarantine window; a tenant breaching
//!   while inside its rate contract is a victim and gets its weight
//!   widened. Every action is logged for incident reports.
//!
//! Determinism: tenant state lives in a dense table in order of first
//! arrival, the active list is activation-ordered, and the token bucket
//! is pure cycle arithmetic — identical runs replay identically, which
//! the chaos suite requires.

use std::collections::{BTreeMap, VecDeque};

use sb_sentinel::{SloHandle, SloHealth, SloSpec};
use sb_sim::Cycles;
use sb_transport::{Request, TenantId};

/// What happens to an arrival that finds its queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject it immediately (load shedding); the client sees an error.
    Shed,
    /// Block the producer until a slot frees; the wait is charged to the
    /// request's latency.
    Block,
}

/// How long a quarantined aggressor's new arrivals are shed, in cycles.
pub const QUARANTINE_WINDOW: Cycles = 5_000_000;

/// The widest a victim's weight may be boosted (multiplier cap).
pub const MAX_WEIGHT_BOOST: u64 = 8;

/// Arrivals a tenant must offer between actions before the fabric will
/// classify it — a breach edge fires on the first bad sample, which is
/// far too little evidence to call aggressor vs victim.
pub const MIN_ACTION_EVIDENCE: u64 = 16;

/// A token-bucket rate contract: a tenant may sustain `per_mcycle`
/// admissions per million cycles with bursts up to `burst` back-to-back.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Sustained admissions per million cycles.
    pub per_mcycle: f64,
    /// Bucket depth: admissions a cold tenant may burst at once.
    pub burst: f64,
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    last: Cycles,
}

impl TokenBucket {
    fn new(limit: RateLimit) -> Self {
        TokenBucket {
            limit,
            tokens: limit.burst,
            last: 0,
        }
    }

    /// Refills for the elapsed cycles and takes one token if available.
    fn try_take(&mut self, now: Cycles) -> bool {
        let dt = now.saturating_sub(self.last) as f64;
        self.last = self.last.max(now);
        self.tokens = (self.tokens + dt * self.limit.per_mcycle / 1e6).min(self.limit.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One tenant's contract with the fabric.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// DRR weight: requests served per scheduling round relative to
    /// weight-1 tenants.
    pub weight: u64,
    /// Bound on this tenant's admitted-but-unserved requests.
    pub queue_capacity: usize,
    /// What happens to this tenant's arrivals at a full queue.
    pub policy: AdmissionPolicy,
    /// Token-bucket admission contract; `None` admits at any rate.
    pub rate: Option<RateLimit>,
    /// Per-tenant latency/error objective; `None` tracks nothing and
    /// the fabric never acts on this tenant.
    pub slo: Option<SloSpec>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            queue_capacity: 64,
            policy: AdmissionPolicy::Shed,
            rate: None,
            slo: None,
        }
    }
}

/// The tenant contract registry: a default spec plus per-tenant
/// overrides. Thousands of look-alike tenants cost one default entry.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    default: TenantSpec,
    overrides: BTreeMap<TenantId, TenantSpec>,
}

impl TenantRegistry {
    /// A registry where every tenant gets `default`.
    pub fn new(default: TenantSpec) -> Self {
        TenantRegistry {
            default,
            overrides: BTreeMap::new(),
        }
    }

    /// The single-tenant compatibility registry the dispatcher builds
    /// when no fabric is configured: one default tenant whose queue is
    /// the old global queue.
    pub fn single(queue_capacity: usize, policy: AdmissionPolicy) -> Self {
        TenantRegistry::new(TenantSpec {
            queue_capacity,
            policy,
            ..TenantSpec::default()
        })
    }

    /// Sets `spec` for one tenant (builder style).
    pub fn with(mut self, id: TenantId, spec: TenantSpec) -> Self {
        self.overrides.insert(id, spec);
        self
    }

    /// The spec governing `id`.
    pub fn spec(&self, id: TenantId) -> &TenantSpec {
        self.overrides.get(&id).unwrap_or(&self.default)
    }

    /// The configured DRR weight for `id`.
    pub fn weight(&self, id: TenantId) -> u64 {
        self.spec(id).weight.max(1)
    }
}

/// Why the fabric's admission gate refused an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The arrival may proceed to its tenant's queue.
    Admit,
    /// The tenant's token bucket is empty — over its rate contract.
    RateLimited,
    /// The tenant is inside an SLO-action quarantine window.
    Quarantined,
}

/// One SLO-burn-driven action the fabric took, for incident reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantAction {
    /// An aggressor (breaching while mostly rate-shed) had its new
    /// arrivals quarantined until the given cycle.
    Quarantine {
        /// The offending tenant.
        tenant: TenantId,
        /// When the action fired.
        at: Cycles,
        /// End of the shed window.
        until: Cycles,
    },
    /// A victim (breaching while inside its rate contract) had its DRR
    /// weight widened.
    WidenWeight {
        /// The protected tenant.
        tenant: TenantId,
        /// When the action fired.
        at: Cycles,
        /// Effective weight before the boost.
        from: u64,
        /// Effective weight after.
        to: u64,
    },
}

impl TenantAction {}

/// Tenant id → dense slot number, for the ids seen so far: a two-level
/// table, `pages[id / 256][id % 256]` holding the slot number plus one
/// (zero, or an absent page: not seen). Pages exist only where an id
/// was seen, so memory follows the tenants that arrived — one 1 KiB
/// page per 256-id neighbourhood touched, under a directory of at most
/// 256 pointers — never the largest id: one request from tenant 65 535
/// costs a page, not 65 536 lanes.
#[derive(Debug, Default)]
struct SlotIndex(Vec<Option<Box<[u32; 256]>>>);

impl SlotIndex {
    #[inline]
    fn get(&self, id: TenantId) -> Option<usize> {
        let page = self.0.get(id as usize / 256)?.as_ref()?;
        (page[id as usize % 256] as usize).checked_sub(1)
    }

    fn insert(&mut self, id: TenantId, slot: usize) {
        let page = id as usize / 256;
        if self.0.len() <= page {
            self.0.resize_with(page + 1, || None);
        }
        self.0[page].get_or_insert_with(|| Box::new([0; 256]))[id as usize % 256] = slot as u32 + 1;
    }
}

/// One tenant's live scheduling state.
#[derive(Debug)]
struct TenantLane {
    id: TenantId,
    spec: TenantSpec,
    queue: VecDeque<Request>,
    /// DRR deficit in request-service credits.
    deficit: u64,
    /// Whether the current head-of-list visit already recharged.
    charged: bool,
    /// Whether this tenant sits in the active list.
    in_active: bool,
    /// Weight multiplier applied by WidenWeight actions.
    boost: u64,
    bucket: Option<TokenBucket>,
    /// New arrivals shed until this cycle (quarantine action).
    quarantined_until: Cycles,
    slo: Option<SloHandle>,
    /// Breach episodes already acted upon.
    acted_breaches: u64,
    /// Arrivals / rate-shed counters since the last action decision —
    /// the aggressor-vs-victim evidence.
    offered_since: u64,
    rate_shed_since: u64,
}

impl TenantLane {
    fn new(id: TenantId, spec: TenantSpec) -> Self {
        let bucket = spec.rate.map(TokenBucket::new);
        let slo = spec.slo.map(SloHandle::new);
        TenantLane {
            id,
            spec,
            queue: VecDeque::new(),
            deficit: 0,
            charged: false,
            in_active: false,
            boost: 1,
            bucket,
            quarantined_until: 0,
            slo,
            acted_breaches: 0,
            offered_since: 0,
            rate_shed_since: 0,
        }
    }

    fn effective_weight(&self) -> u64 {
        self.spec.weight.max(1).saturating_mul(self.boost)
    }
}

/// The fabric: per-tenant bounded queues under one deficit-round-robin
/// scheduler. This replaces the dispatcher's single global FIFO.
#[derive(Debug)]
pub struct TenantFabric {
    registry: TenantRegistry,
    /// One lane per tenant seen, in order of first arrival; a tenant's
    /// position is its *slot*, which [`SlotIndex`] finds from its id.
    lanes: Vec<TenantLane>,
    index: SlotIndex,
    /// Slots of the tenants with queued work, in activation order; the
    /// DRR scan rotates this.
    active: VecDeque<usize>,
    queued: usize,
    /// Sum of the registry weights of every tenant seen so far,
    /// saturating: past `u64::MAX` every share is already below one
    /// slot and is rounded up to it.
    seen_weight: u64,
    actions: Vec<TenantAction>,
}

/// DRR service cost of one request. Weights are expressed in requests
/// per round, so the cost unit is 1.
const DRR_COST: u64 = 1;

impl TenantFabric {
    /// An empty fabric over `registry`.
    pub fn new(registry: TenantRegistry) -> Self {
        TenantFabric {
            registry,
            lanes: Vec::new(),
            index: SlotIndex::default(),
            active: VecDeque::new(),
            queued: 0,
            seen_weight: 0,
            actions: Vec::new(),
        }
    }

    /// `id`'s slot: its position among the tenants seen so far, in
    /// order of first arrival. A first sight creates the tenant's lane.
    #[inline]
    pub(crate) fn slot(&mut self, id: TenantId) -> usize {
        self.index.get(id).unwrap_or_else(|| {
            let slot = self.lanes.len();
            self.index.insert(id, slot);
            self.seen_weight = self.seen_weight.saturating_add(self.registry.weight(id));
            let spec = self.registry.spec(id).clone();
            self.lanes.push(TenantLane::new(id, spec));
            slot
        })
    }

    fn lane(&self, id: TenantId) -> Option<&TenantLane> {
        self.index.get(id).map(|slot| &self.lanes[slot])
    }

    fn lane_mut(&mut self, id: TenantId) -> &mut TenantLane {
        let slot = self.slot(id);
        &mut self.lanes[slot]
    }

    /// The summed registry weight of every tenant seen so far — what
    /// the rings reference model divides by.
    #[cfg(test)]
    pub(crate) fn seen_weight(&self) -> u64 {
        self.seen_weight
    }

    /// The id of the tenant in `slot`.
    pub(crate) fn tenant_at(&self, slot: usize) -> TenantId {
        self.lanes[slot].id
    }

    /// The share of `of` ring slots the tenant in `slot` may hold: its
    /// registry weight over the summed weight of every tenant that has
    /// arrived so far, at least one slot. Widened, because a configured
    /// weight times a ring capacity need not fit 64 bits.
    pub(crate) fn share(&self, slot: usize, of: usize) -> usize {
        let weight = self.lanes[slot].spec.weight.max(1) as u128;
        let share = of as u128 * weight / self.seen_weight.max(1) as u128;
        (share as usize).max(1)
    }

    /// Total requests queued across all tenants.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no tenant has queued work.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The queue bound for `id`'s lane.
    pub fn capacity(&self, id: TenantId) -> usize {
        self.registry.spec(id).queue_capacity
    }

    /// The admission policy for `id`'s arrivals at a full lane.
    pub fn policy(&self, id: TenantId) -> AdmissionPolicy {
        self.registry.spec(id).policy
    }

    /// Whether `id`'s lane is at its bound.
    pub fn is_full(&mut self, id: TenantId) -> bool {
        let lane = self.lane_mut(id);
        lane.queue.len() >= lane.spec.queue_capacity
    }

    /// The rate/quarantine admission gate for an arrival of `id` at
    /// `now`. Must be consulted exactly once per arrival (it charges the
    /// token bucket and the aggressor-evidence counters); queue-bound
    /// checks come after, via [`TenantFabric::is_full`].
    pub fn gate(&mut self, id: TenantId, now: Cycles) -> Gate {
        let lane = self.lane_mut(id);
        lane.offered_since += 1;
        if now < lane.quarantined_until {
            lane.rate_shed_since += 1;
            return Gate::Quarantined;
        }
        if let Some(bucket) = &mut lane.bucket {
            if !bucket.try_take(now) {
                lane.rate_shed_since += 1;
                return Gate::RateLimited;
            }
        }
        Gate::Admit
    }

    /// Queues `req` on its tenant's lane. Callers must gate and check
    /// [`TenantFabric::is_full`] first; pushing past the bound is a
    /// dispatcher bug, exactly as with the old global queue.
    pub fn push(&mut self, req: Request) {
        let slot = self.slot(req.tenant);
        let lane = &mut self.lanes[slot];
        assert!(
            lane.queue.len() < lane.spec.queue_capacity,
            "admission past the queue bound"
        );
        lane.queue.push_back(req);
        if !lane.in_active {
            lane.in_active = true;
            self.active.push_back(slot);
        }
        self.queued += 1;
    }

    /// The next request to serve under deficit round robin: the head
    /// tenant recharges `quantum x effective_weight` on first visit and
    /// serves until its deficit runs dry, then rotates to the tail.
    /// With one tenant this is exact FIFO.
    pub fn pop(&mut self) -> Option<Request> {
        if self.queued == 0 {
            return None;
        }
        loop {
            let &slot = self.active.front().expect("queued > 0 implies active");
            let lane = &mut self.lanes[slot];
            if !lane.charged {
                lane.deficit = lane
                    .deficit
                    .saturating_add(DRR_COST * lane.effective_weight());
                lane.charged = true;
            }
            if lane.deficit >= DRR_COST {
                if let Some(req) = lane.queue.pop_front() {
                    lane.deficit -= DRR_COST;
                    self.queued -= 1;
                    if lane.queue.is_empty() {
                        // An emptied lane leaves the round; unspent
                        // deficit is forfeited (no banking credit while
                        // idle — the DRR fairness invariant).
                        lane.deficit = 0;
                        lane.charged = false;
                        lane.in_active = false;
                        self.active.pop_front();
                    }
                    return Some(req);
                }
            }
            // Deficit spent (or an empty lane slipped through): end the
            // visit and rotate.
            lane.charged = false;
            if lane.queue.is_empty() {
                lane.deficit = 0;
                lane.in_active = false;
                self.active.pop_front();
            } else {
                self.active.rotate_left(1);
            }
        }
    }

    /// Records a completion for per-tenant SLO tracking and runs the
    /// action rule on a fresh breach.
    pub fn complete(&mut self, id: TenantId, t: Cycles, latency: Cycles) {
        let slot = self.slot(id);
        if let Some(slo) = &self.lanes[slot].slo {
            slo.complete(t, latency);
            self.act_on_breach(slot, t);
        }
    }

    /// Records a failed/shed/timed-out outcome for per-tenant SLO
    /// tracking and runs the action rule on a fresh breach.
    pub fn error(&mut self, id: TenantId, t: Cycles) {
        let slot = self.slot(id);
        if let Some(slo) = &self.lanes[slot].slo {
            slo.error(t);
            self.act_on_breach(slot, t);
        }
    }

    /// The SLO-burn action rule, evaluated on the *edge* of a breach
    /// episode (one action per episode): a tenant whose own arrivals
    /// were mostly rate-shed since the last decision is the aggressor —
    /// quarantine its new arrivals; a tenant breaching while inside its
    /// rate contract is a victim — widen its weight so the scheduler
    /// favors draining its backlog.
    fn act_on_breach(&mut self, slot: usize, t: Cycles) {
        let lane = &mut self.lanes[slot];
        let id = lane.id;
        let Some(slo) = &lane.slo else { return };
        let health = slo.health();
        if !health.in_breach || lane.offered_since < MIN_ACTION_EVIDENCE {
            return;
        }
        let aggressor = lane.rate_shed_since * 2 > lane.offered_since;
        // One action per breach episode — except that an aggressor
        // still breaching when its quarantine window lapses is
        // quarantined again rather than let loose.
        let fresh = health.breaches > lane.acted_breaches;
        let relapsed = aggressor && t >= lane.quarantined_until;
        if !fresh && !relapsed {
            return;
        }
        lane.acted_breaches = health.breaches;
        lane.offered_since = 0;
        lane.rate_shed_since = 0;
        if aggressor {
            lane.quarantined_until = t.saturating_add(QUARANTINE_WINDOW);
            self.actions.push(TenantAction::Quarantine {
                tenant: id,
                at: t,
                until: lane.quarantined_until,
            });
        } else if lane.boost < MAX_WEIGHT_BOOST {
            let from = lane.effective_weight();
            lane.boost = (lane.boost * 2).min(MAX_WEIGHT_BOOST);
            let to = lane.effective_weight();
            self.actions.push(TenantAction::WidenWeight {
                tenant: id,
                at: t,
                from,
                to,
            });
        }
    }

    /// Advances every tenant tracker's clock (see
    /// [`sb_sentinel::SloHandle::tick`]) — called at end of run so idle
    /// tenants' burn rates decay instead of staying stale.
    pub fn tick(&mut self, t: Cycles) {
        for lane in &self.lanes {
            if let Some(slo) = &lane.slo {
                slo.tick(t);
            }
        }
    }

    /// The SLO health of `id`'s tracker, if it has an objective.
    pub fn slo_health(&self, id: TenantId) -> Option<SloHealth> {
        self.lane(id)
            .and_then(|l| l.slo.as_ref())
            .map(|s| s.health())
    }

    /// Every SLO-burn action taken so far, in order.
    pub fn actions(&self) -> &[TenantAction] {
        &self.actions
    }

    /// Whether `id` is quarantined at `now`.
    pub fn quarantined(&self, id: TenantId, now: Cycles) -> bool {
        self.lane(id).is_some_and(|l| now < l.quarantined_until)
    }

    /// `id`'s current effective weight (spec weight times any boost).
    pub fn effective_weight(&self, id: TenantId) -> u64 {
        self.lane(id)
            .map(|l| l.effective_weight())
            .unwrap_or_else(|| self.registry.weight(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, tenant: TenantId) -> Request {
        Request {
            id,
            arrival: id,
            key: 0,
            write: false,
            payload: 16,
            client: None,
            tenant,
        }
    }

    fn fabric_with_weights(weights: &[(TenantId, u64)]) -> TenantFabric {
        let mut reg = TenantRegistry::new(TenantSpec {
            queue_capacity: 1024,
            ..TenantSpec::default()
        });
        for &(id, weight) in weights {
            reg = reg.with(
                id,
                TenantSpec {
                    weight,
                    queue_capacity: 1024,
                    ..TenantSpec::default()
                },
            );
        }
        TenantFabric::new(reg)
    }

    #[test]
    fn single_tenant_is_exact_fifo() {
        let mut f = TenantFabric::new(TenantRegistry::single(64, AdmissionPolicy::Shed));
        for i in 0..10 {
            assert_eq!(f.gate(0, i), Gate::Admit);
            f.push(req(i, 0));
        }
        let order: Vec<u64> = std::iter::from_fn(|| f.pop()).map(|r| r.id).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert!(f.is_empty());
    }

    #[test]
    fn drr_shares_by_weight_under_saturation() {
        let mut f = fabric_with_weights(&[(1, 1), (2, 2), (3, 4)]);
        let mut next = 0u64;
        for t in [1u16, 2, 3] {
            for _ in 0..700 {
                f.push(req(next, t));
                next += 1;
            }
        }
        // Pop one full DRR cycle x 100: served counts must track 1:2:4.
        let mut served = BTreeMap::new();
        for _ in 0..700 {
            let r = f.pop().unwrap();
            *served.entry(r.tenant).or_insert(0u64) += 1;
        }
        let s1 = served[&1];
        let s2 = served[&2];
        let s3 = served[&3];
        assert!(s2 >= 2 * s1 - 2 && s2 <= 2 * s1 + 2, "w2 {s2} vs w1 {s1}");
        assert!(s3 >= 4 * s1 - 4 && s3 <= 4 * s1 + 4, "w4 {s3} vs w1 {s1}");
    }

    #[test]
    fn fifo_within_a_tenant_is_preserved() {
        let mut f = fabric_with_weights(&[(1, 1), (2, 3)]);
        for i in 0..30 {
            f.push(req(i, if i % 2 == 0 { 1 } else { 2 }));
        }
        let mut last_per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        while let Some(r) = f.pop() {
            if let Some(&prev) = last_per_tenant.get(&r.tenant) {
                assert!(prev < r.id, "tenant {} reordered", r.tenant);
            }
            last_per_tenant.insert(r.tenant, r.id);
        }
    }

    #[test]
    fn token_bucket_caps_sustained_rate_but_allows_bursts() {
        let reg = TenantRegistry::new(TenantSpec {
            rate: Some(RateLimit {
                per_mcycle: 100.0, // One admission per 10k cycles.
                burst: 5.0,
            }),
            ..TenantSpec::default()
        });
        let mut f = TenantFabric::new(reg);
        // A cold bucket allows the full burst at t=0...
        let burst: Vec<Gate> = (0..6).map(|_| f.gate(0, 0)).collect();
        assert_eq!(burst.iter().filter(|&&g| g == Gate::Admit).count(), 5);
        assert_eq!(burst[5], Gate::RateLimited);
        // ...then admits exactly at the refill rate.
        assert_eq!(f.gate(0, 5_000), Gate::RateLimited, "half a token");
        assert_eq!(f.gate(0, 10_000), Gate::Admit, "one token refilled");
        assert_eq!(f.gate(0, 10_001), Gate::RateLimited);
    }

    #[test]
    fn aggressor_breach_quarantines_victim_breach_widens() {
        let slo = SloSpec {
            latency_objective: 1_000,
            error_budget: 0.01,
            fast_window: 10_000,
            slow_window: 100_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
        };
        let reg = TenantRegistry::new(TenantSpec {
            slo: Some(slo),
            ..TenantSpec::default()
        })
        .with(
            7,
            TenantSpec {
                slo: Some(slo),
                rate: Some(RateLimit {
                    per_mcycle: 1.0,
                    burst: 1.0,
                }),
                ..TenantSpec::default()
            },
        );
        let mut f = TenantFabric::new(reg);
        // Tenant 7 storms: almost everything rate-sheds, errors pile up,
        // and the breach marks it as the aggressor.
        for i in 0..200u64 {
            let t = i * 10;
            if f.gate(7, t) != Gate::Admit {
                f.error(7, t);
            }
        }
        assert!(
            f.quarantined(7, 2_100),
            "a storming tenant must be quarantined: {:?}",
            f.actions()
        );
        assert!(matches!(
            f.actions()[0],
            TenantAction::Quarantine { tenant: 7, .. }
        ));
        // Tenant 3 breaches on pure latency (no rate sheds): a victim —
        // its weight widens instead.
        for i in 0..200u64 {
            let t = i * 10;
            assert_eq!(f.gate(3, t), Gate::Admit);
            f.complete(3, t, 50_000);
        }
        assert_eq!(f.effective_weight(3), 2, "victim weight must widen");
        assert!(!f.quarantined(3, 2_100));
        assert!(f.actions().iter().any(|a| matches!(
            a,
            TenantAction::WidenWeight {
                tenant: 3,
                from: 1,
                to: 2,
                ..
            }
        )));
    }

    #[test]
    fn quarantine_expires_and_admission_resumes() {
        let slo = SloSpec {
            latency_objective: 1_000,
            error_budget: 0.01,
            fast_window: 10_000,
            slow_window: 100_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
        };
        let reg = TenantRegistry::new(TenantSpec {
            slo: Some(slo),
            rate: Some(RateLimit {
                per_mcycle: 1.0,
                burst: 1.0,
            }),
            ..TenantSpec::default()
        });
        let mut f = TenantFabric::new(reg);
        for i in 0..200u64 {
            let t = i * 10;
            if f.gate(0, t) != Gate::Admit {
                f.error(0, t);
            }
        }
        assert!(f.quarantined(0, 10_000));
        let after = QUARANTINE_WINDOW + 2_000_000;
        assert!(!f.quarantined(0, after));
        assert_eq!(f.gate(0, after), Gate::Admit, "the bucket refilled");
    }

    #[test]
    fn push_past_tenant_bound_panics() {
        let reg = TenantRegistry::new(TenantSpec {
            queue_capacity: 1,
            ..TenantSpec::default()
        });
        let mut f = TenantFabric::new(reg);
        f.push(req(0, 0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.push(req(1, 0))));
        assert!(r.is_err(), "overfilling a tenant lane must panic");
    }

    #[test]
    fn per_tenant_capacity_isolates_backlogs() {
        let reg = TenantRegistry::new(TenantSpec {
            queue_capacity: 2,
            ..TenantSpec::default()
        })
        .with(
            9,
            TenantSpec {
                queue_capacity: 8,
                ..TenantSpec::default()
            },
        );
        let mut f = TenantFabric::new(reg);
        f.push(req(0, 1));
        f.push(req(1, 1));
        assert!(f.is_full(1), "tenant 1 hit its own bound");
        assert!(!f.is_full(9), "tenant 9's lane is untouched");
        for i in 0..8 {
            f.push(req(10 + i, 9));
        }
        assert!(f.is_full(9));
        assert_eq!(f.len(), 10);
    }
}
