//! `sb-faultplane`: seeded, deterministic fault injection for the whole
//! SkyBridge stack.
//!
//! A production-scale serving system must *recover* when servers crash
//! mid-handler, block devices tear writes, or EPTP-list entries vanish at
//! context switch. This crate is the control plane for exercising those
//! paths on purpose:
//!
//! * every layer that can fail holds a cloneable [`FaultHandle`] and asks
//!   [`FaultHandle::fire`] at its injectable *fault points* — the answer
//!   is a deterministic function of the seed and the [`FaultMix`] rates,
//!   so a chaos run is exactly reproducible from `(seed, mix)`;
//! * every injected fault becomes a tracked instance that the detection
//!   and recovery paths later mark via [`FaultHandle::detected`] and
//!   [`FaultHandle::recovered`];
//! * a per-run [`FaultReport`] rolls the instances up into
//!   injected / detected / recovered / **leaked** counts. A leaked fault
//!   — injected but neither detected nor recovered — is the chaos
//!   suite's failure condition: it means the stack silently lost a
//!   request or corrupted state.
//!
//! The crate deliberately depends on nothing else in the workspace so the
//! file system, the microkernel, the SkyBridge core, and the serving
//! runtime can all hook into it without dependency cycles.

use std::cell::RefCell;
use std::rc::Rc;

/// Where in the stack a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// `fs::blockdev`: a transient block-read I/O error.
    BlockReadError,
    /// `fs::blockdev`: a transient block-write I/O error (succeeds on
    /// retry).
    BlockWriteError,
    /// `fs::blockdev`: a torn write — only a prefix of the block reaches
    /// the medium before power is lost.
    TornWrite,
    /// `fs::blockdev`: power loss — every subsequent write is dropped.
    PowerLoss,
    /// `microkernel`/server: the handler panics mid-request and the
    /// server thread dies.
    HandlerPanic,
    /// `microkernel`/server: the handler hangs; only the DoS-timeout
    /// budget (§7) can force control back.
    HandlerHang,
    /// `microkernel`: an EPTP-list entry is evicted at context switch, so
    /// the next `VMFUNC` indexes a stale slot.
    EptpEvict,
    /// `core`: a rogue client tries to exhaust the server's connection
    /// slots (shared buffers + stacks, §4.4).
    BufferExhaust,
    /// `core`: the presented calling key is corrupted (a guessing
    /// attack); the server-side key check must refuse it.
    KeyCorrupt,
    /// `runtime`: a queue-deadline storm — for a window of arrivals the
    /// effective queue deadline collapses and everything queued goes
    /// stale.
    DeadlineStorm,
    /// `transport`/mpk: the armed PKRU value for a lane goes stale (a
    /// "forgot to restore PKRU" bug), so the next domain switch leaves
    /// the handler without rights to its own records — the MPK analogue
    /// of [`FaultPoint::EptpEvict`]. Only the MPK personality can
    /// misbehave here; the others rescind.
    PkruStale,
}

impl FaultPoint {
    /// Every injectable point, in a fixed order (report rows).
    pub const ALL: [FaultPoint; 11] = [
        FaultPoint::BlockReadError,
        FaultPoint::BlockWriteError,
        FaultPoint::TornWrite,
        FaultPoint::PowerLoss,
        FaultPoint::HandlerPanic,
        FaultPoint::HandlerHang,
        FaultPoint::EptpEvict,
        FaultPoint::BufferExhaust,
        FaultPoint::KeyCorrupt,
        FaultPoint::DeadlineStorm,
        FaultPoint::PkruStale,
    ];

    /// Stable display name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::BlockReadError => "block_read_error",
            FaultPoint::BlockWriteError => "block_write_error",
            FaultPoint::TornWrite => "torn_write",
            FaultPoint::PowerLoss => "power_loss",
            FaultPoint::HandlerPanic => "handler_panic",
            FaultPoint::HandlerHang => "handler_hang",
            FaultPoint::EptpEvict => "eptp_evict",
            FaultPoint::BufferExhaust => "buffer_exhaust",
            FaultPoint::KeyCorrupt => "key_corrupt",
            FaultPoint::DeadlineStorm => "deadline_storm",
            FaultPoint::PkruStale => "pkru_stale",
        }
    }

    fn index(self) -> usize {
        FaultPoint::ALL.iter().position(|p| *p == self).unwrap()
    }
}

/// Injection rates per fault point, in events per 10,000 opportunities.
///
/// A *mix* names a chaos flavour; the presets below are the columns of
/// the chaos suite's seed × mix matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMix {
    /// Human-readable mix name (report rows).
    pub name: &'static str,
    rates: [u32; FaultPoint::ALL.len()],
}

impl FaultMix {
    /// A mix with every rate zero.
    pub fn none() -> Self {
        FaultMix {
            name: "none",
            rates: [0; FaultPoint::ALL.len()],
        }
    }

    /// Sets `point`'s rate (events per 10,000 opportunities).
    pub fn with(mut self, point: FaultPoint, per_10k: u32) -> Self {
        self.rates[point.index()] = per_10k.min(10_000);
        self
    }

    /// Renames the mix.
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The rate configured for `point`.
    pub fn rate(&self, point: FaultPoint) -> u32 {
        self.rates[point.index()]
    }

    /// Server-side crashes and hangs.
    pub fn crashes() -> Self {
        FaultMix::none()
            .named("crashes")
            .with(FaultPoint::HandlerPanic, 300)
            .with(FaultPoint::HandlerHang, 200)
    }

    /// Storage-layer trouble: transient I/O errors and torn writes.
    pub fn storage() -> Self {
        FaultMix::none()
            .named("storage")
            .with(FaultPoint::BlockReadError, 250)
            .with(FaultPoint::BlockWriteError, 400)
            .with(FaultPoint::TornWrite, 150)
    }

    /// Security-machinery stress: key corruption, buffer exhaustion,
    /// EPTP-slot eviction.
    pub fn security() -> Self {
        FaultMix::none()
            .named("security")
            .with(FaultPoint::KeyCorrupt, 300)
            .with(FaultPoint::EptpEvict, 400)
            .with(FaultPoint::BufferExhaust, 100)
            .with(FaultPoint::PkruStale, 400)
    }

    /// Power-loss drills: mid-request power cuts (with the occasional
    /// torn final write) over a background of transient write errors —
    /// the crash matrix the WAL + commit-log replay path must absorb.
    /// Unlike [`FaultMix::storage`], this mix fires
    /// [`FaultPoint::PowerLoss`], so a run *will* eventually lose the
    /// device mid-sequence.
    pub fn power() -> Self {
        FaultMix::none()
            .named("power")
            .with(FaultPoint::PowerLoss, 40)
            .with(FaultPoint::TornWrite, 20)
            .with(FaultPoint::BlockWriteError, 120)
    }

    /// Queue-deadline storms.
    pub fn storms() -> Self {
        FaultMix::none()
            .named("storms")
            .with(FaultPoint::DeadlineStorm, 150)
    }

    /// Everything at once, at moderate rates.
    pub fn everything() -> Self {
        FaultMix::none()
            .named("everything")
            .with(FaultPoint::BlockReadError, 100)
            .with(FaultPoint::BlockWriteError, 150)
            .with(FaultPoint::TornWrite, 80)
            .with(FaultPoint::HandlerPanic, 150)
            .with(FaultPoint::HandlerHang, 100)
            .with(FaultPoint::EptpEvict, 250)
            .with(FaultPoint::BufferExhaust, 60)
            .with(FaultPoint::KeyCorrupt, 150)
            .with(FaultPoint::DeadlineStorm, 80)
            .with(FaultPoint::PkruStale, 150)
    }
}

/// One injected fault, from firing to resolution.
#[derive(Debug, Clone, Copy)]
struct FaultInstance {
    point: FaultPoint,
    detected: bool,
    recovered: bool,
}

/// The injector's state: a seeded RNG, a mix of rates, and the
/// instance ledger.
#[derive(Debug)]
struct Plane {
    mix: FaultMix,
    /// xorshift64* state; self-contained so the crate has no deps.
    rng: u64,
    instances: Vec<FaultInstance>,
    /// When false, `fire` never injects (a run's warm-up window).
    armed: bool,
    /// Unused: keeps the plane's allocation at 128 bytes. Every
    /// `SkyBridge::new` allocates one, and a smaller allocation can move
    /// the benchmark's heap placement (`xcall_sky` `setup_s`), as a
    /// smaller recorder did.
    _heap_layout: [u64; 2],
}

impl Plane {
    fn next_u64(&mut self) -> u64 {
        // xorshift64* — deterministic, seed-stable across platforms.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Per-point totals in a [`FaultReport`].
#[derive(Debug, Clone, Copy)]
pub struct FaultRow {
    /// The fault point.
    pub point: FaultPoint,
    /// Instances injected.
    pub injected: u64,
    /// Instances the system observed (error surfaced / violation
    /// recorded / timeout tripped).
    pub detected: u64,
    /// Instances a recovery path resolved.
    pub recovered: u64,
    /// Instances neither detected nor recovered — silent damage.
    pub leaked: u64,
}

/// The per-run roll-up of every injected fault.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// One row per fault point that fired at least once.
    pub rows: Vec<FaultRow>,
}

impl FaultReport {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.rows.iter().map(|r| r.injected).sum()
    }

    /// Total faults detected.
    pub fn detected(&self) -> u64 {
        self.rows.iter().map(|r| r.detected).sum()
    }

    /// Total faults recovered.
    pub fn recovered(&self) -> u64 {
        self.rows.iter().map(|r| r.recovered).sum()
    }

    /// Total faults leaked — the chaos suite asserts this is zero.
    pub fn leaked(&self) -> u64 {
        self.rows.iter().map(|r| r.leaked).sum()
    }

    /// Total faults injected but never recovered: detected-but-stuck
    /// instances plus silent leaks. The flight recorder triggers on
    /// this — a fault somebody noticed but nobody repaired is still an
    /// incident worth a postmortem.
    pub fn unrecovered(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.injected.saturating_sub(r.recovered))
            .sum()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected={} detected={} recovered={} leaked={}",
            self.injected(),
            self.detected(),
            self.recovered(),
            self.leaked()
        )
    }
}

/// The injector: a cloneable handle onto one shared plane (seeded RNG,
/// mix of rates, instance ledger). Every layer of the stack holds a
/// clone; the whole simulation is single-threaded, so `Rc` is the right
/// tool.
#[derive(Clone)]
pub struct FaultHandle(Rc<RefCell<Plane>>);

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FaultHandle")
            .field(&self.0.borrow())
            .finish()
    }
}

impl FaultHandle {
    /// A plane seeded with `seed`, injecting per `mix`. Armed by default.
    pub fn new(seed: u64, mix: FaultMix) -> Self {
        FaultHandle(Rc::new(RefCell::new(Plane {
            mix,
            rng: seed | 1,
            instances: Vec::new(),
            armed: true,
            _heap_layout: [0; 2],
        })))
    }

    /// Asks whether `point` fires at this opportunity. When it does, a
    /// tracked instance is opened and `true` returned; the caller must
    /// then actually misbehave.
    pub fn fire(&self, point: FaultPoint) -> bool {
        let mut p = self.0.borrow_mut();
        let rate = p.mix.rate(point);
        if !p.armed || rate == 0 {
            return false;
        }
        // Draw even when the rate is zero-adjacent so seed streams stay
        // aligned across mixes of the same shape.
        let draw = p.next_u64() % 10_000;
        if draw < rate as u64 {
            p.instances.push(FaultInstance {
                point,
                detected: false,
                recovered: false,
            });
            true
        } else {
            false
        }
    }

    /// A deterministic draw for fault *parameters* (corrupt key value,
    /// torn-write cut point, storm length).
    pub fn draw(&self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.0.borrow_mut().next_u64() % bound
    }

    /// Disarms injection (no new faults fire); the ledger stays.
    pub fn disarm(&self) {
        self.0.borrow_mut().armed = false;
    }

    /// Re-arms injection.
    pub fn arm(&self) {
        self.0.borrow_mut().armed = true;
    }

    /// Marks the oldest undetected instance of `point` detected: the
    /// system *observed* the fault (an error surfaced, a violation was
    /// recorded, a timeout tripped).
    pub fn detected(&self, point: FaultPoint) {
        let mut p = self.0.borrow_mut();
        if let Some(idx) = p
            .instances
            .iter()
            .position(|i| i.point == point && !i.detected)
        {
            p.instances[idx].detected = true;
        }
    }

    /// Marks the oldest unrecovered instance of `point` recovered: a
    /// recovery path completed (retry succeeded, connection rebound,
    /// log replayed). Implies detection.
    pub fn recovered(&self, point: FaultPoint) {
        let mut p = self.0.borrow_mut();
        if let Some(idx) = p
            .instances
            .iter()
            .position(|i| i.point == point && !i.recovered)
        {
            p.instances[idx].recovered = true;
            p.instances[idx].detected = true;
        }
    }

    /// Rescinds the *newest* unresolved instance of `point`: the injection
    /// site fired but could not actually misbehave (e.g. the targeted EPTP
    /// slot was pinned). The instance is erased — it never happened.
    pub fn rescind(&self, point: FaultPoint) {
        let mut p = self.0.borrow_mut();
        if let Some(idx) = p
            .instances
            .iter()
            .rposition(|i| i.point == point && !i.detected && !i.recovered)
        {
            p.instances.remove(idx);
        }
    }

    /// Marks *every* unrecovered instance of `point` recovered — for
    /// recovery mechanisms that are inherently batched (a full EPTP-list
    /// reinstall at context switch, a log replay at remount) and heal all
    /// outstanding damage of that kind at once.
    pub fn recover_all(&self, point: FaultPoint) {
        for i in self
            .0
            .borrow_mut()
            .instances
            .iter_mut()
            .filter(|i| i.point == point && !i.recovered)
        {
            i.recovered = true;
            i.detected = true;
        }
    }

    /// Instances of `point` injected but not yet recovered.
    pub fn outstanding(&self, point: FaultPoint) -> u64 {
        self.0
            .borrow()
            .instances
            .iter()
            .filter(|i| i.point == point && !i.recovered)
            .count() as u64
    }

    /// Faults injected at `point` so far.
    pub fn injected_at(&self, point: FaultPoint) -> u64 {
        self.0
            .borrow()
            .instances
            .iter()
            .filter(|i| i.point == point)
            .count() as u64
    }

    /// Rolls the ledger up into a report.
    pub fn report(&self) -> FaultReport {
        let p = self.0.borrow();
        let mut rows = Vec::new();
        for point in FaultPoint::ALL {
            let of_point: Vec<&FaultInstance> =
                p.instances.iter().filter(|i| i.point == point).collect();
            if of_point.is_empty() {
                continue;
            }
            rows.push(FaultRow {
                point,
                injected: of_point.len() as u64,
                detected: of_point.iter().filter(|i| i.detected).count() as u64,
                recovered: of_point.iter().filter(|i| i.recovered).count() as u64,
                leaked: of_point
                    .iter()
                    .filter(|i| !i.detected && !i.recovered)
                    .count() as u64,
            });
        }
        FaultReport { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mix = FaultMix::everything();
        let a = FaultHandle::new(42, mix.clone());
        let b = FaultHandle::new(42, mix);
        let fire_a: Vec<bool> = (0..500).map(|_| a.fire(FaultPoint::HandlerPanic)).collect();
        let fire_b: Vec<bool> = (0..500).map(|_| b.fire(FaultPoint::HandlerPanic)).collect();
        assert_eq!(fire_a, fire_b, "fault schedules must be seed-determined");
        assert!(fire_a.iter().any(|&f| f), "a 1.5% rate fires in 500 draws");
    }

    #[test]
    fn different_seeds_differ() {
        let mix = FaultMix::everything();
        let a = FaultHandle::new(1, mix.clone());
        let b = FaultHandle::new(2, mix);
        let fire_a: Vec<bool> = (0..500).map(|_| a.fire(FaultPoint::EptpEvict)).collect();
        let fire_b: Vec<bool> = (0..500).map(|_| b.fire(FaultPoint::EptpEvict)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn zero_rate_never_fires() {
        let p = FaultHandle::new(7, FaultMix::none());
        assert!((0..1000).all(|_| !p.fire(FaultPoint::TornWrite)));
        assert_eq!(p.report().injected(), 0);
    }

    #[test]
    fn ledger_tracks_detection_and_recovery() {
        let mix = FaultMix::none().with(FaultPoint::HandlerPanic, 10_000);
        let p = FaultHandle::new(9, mix);
        assert!(p.fire(FaultPoint::HandlerPanic));
        assert!(p.fire(FaultPoint::HandlerPanic));
        assert!(p.fire(FaultPoint::HandlerPanic));
        p.detected(FaultPoint::HandlerPanic);
        p.recovered(FaultPoint::HandlerPanic); // Pairs with the detected one.
        p.recovered(FaultPoint::HandlerPanic); // Standalone: implies detection.
        let r = p.report();
        assert_eq!(r.injected(), 3);
        assert_eq!(r.detected(), 2);
        assert_eq!(r.recovered(), 2);
        assert_eq!(r.leaked(), 1, "the third instance is silent damage");
    }

    #[test]
    fn disarm_stops_injection() {
        let mix = FaultMix::none().with(FaultPoint::PowerLoss, 10_000);
        let p = FaultHandle::new(3, mix);
        p.disarm();
        assert!(!p.fire(FaultPoint::PowerLoss));
        p.arm();
        assert!(p.fire(FaultPoint::PowerLoss));
    }

    #[test]
    fn handle_shares_one_plane() {
        let h = FaultHandle::new(5, FaultMix::none().with(FaultPoint::KeyCorrupt, 10_000));
        let h2 = h.clone();
        assert!(h.fire(FaultPoint::KeyCorrupt));
        h2.recovered(FaultPoint::KeyCorrupt);
        assert_eq!(h.report().recovered(), 1);
        assert_eq!(h.report().leaked(), 0);
    }

    /// The ledger alone counts every transition, point by point: a
    /// rescinded instance is gone, a batched `recover_all` detects what
    /// it recovers, and a standalone `recovered` implies detection.
    #[test]
    fn the_ledger_counts_every_transition_per_point() {
        let mix = FaultMix::none()
            .with(FaultPoint::EptpEvict, 10_000)
            .with(FaultPoint::HandlerPanic, 10_000);
        let p = FaultHandle::new(11, mix);
        for _ in 0..4 {
            assert!(p.fire(FaultPoint::EptpEvict));
        }
        assert!(p.fire(FaultPoint::HandlerPanic));
        p.rescind(FaultPoint::EptpEvict); // One never misbehaved.
        p.detected(FaultPoint::EptpEvict);
        p.recover_all(FaultPoint::EptpEvict); // Recovers 3, detects 2 more.
        p.recovered(FaultPoint::HandlerPanic); // Standalone: implies detection.

        let rows: Vec<_> = p
            .report()
            .rows
            .iter()
            .map(|r| (r.point, r.injected, r.detected, r.recovered, r.leaked))
            .collect();
        assert_eq!(
            rows,
            [
                (FaultPoint::HandlerPanic, 1, 1, 1, 0),
                (FaultPoint::EptpEvict, 3, 3, 3, 0),
            ]
        );
    }

    /// The plane's allocation keeps the 128 bytes `_heap_layout` holds it
    /// at (see there).
    #[test]
    fn the_plane_allocation_keeps_its_size() {
        assert_eq!(std::mem::size_of::<RefCell<Plane>>(), 128);
    }

    #[test]
    fn a_handle_debugs_as_its_plane() {
        let h = FaultHandle::new(5, FaultMix::none());
        assert!(format!("{h:?}").starts_with("FaultHandle(Plane {"));
    }

    #[test]
    fn report_display_and_rows() {
        let h = FaultHandle::new(5, FaultMix::none().with(FaultPoint::TornWrite, 10_000));
        h.fire(FaultPoint::TornWrite);
        let r = h.report();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].point.name(), "torn_write");
        assert_eq!(format!("{r}"), "injected=1 detected=0 recovered=0 leaked=1");
    }
}
