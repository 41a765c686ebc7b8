//! Online SLO health: sliding-window burn rates over the dispatcher's
//! request outcomes.
//!
//! An objective says "at most `error_budget` of requests may be *bad*
//! (slower than `latency_objective`, or failed/timed-out/shed)". The
//! tracker keeps two sliding windows of good/bad counts in simulated
//! time and evaluates the classic multi-window burn-rate rule on every
//! bad record and bucket boundary: a breach fires when the short
//! window is burning budget at
//! `fast_burn`× the sustainable rate **and** the long window confirms
//! at `slow_burn`× — fast enough to catch an incident inside one
//! window, immune to a single stray request tripping the page.
//!
//! The tracker is shared [`FaultHandle`]-style: the dispatcher holds a
//! cloned [`SloHandle`] and records outcomes inline; scenario and bench
//! code polls health or hands it to a postmortem bundle. The tracker
//! keeps counts, not latencies: the run's own `RunStats` holds those
//! exactly.
//!
//! [`FaultHandle`]: sb_faultplane::FaultHandle

use std::cell::RefCell;
use std::rc::Rc;

use sb_sim::Cycles;

/// A per-server service-level objective.
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// A completion slower than this (arrival to done, cycles) is bad.
    pub latency_objective: Cycles,
    /// Fraction of requests allowed to be bad (the error budget).
    pub error_budget: f64,
    /// Short evaluation window, in cycles.
    pub fast_window: Cycles,
    /// Long confirmation window, in cycles (≥ `fast_window`).
    pub slow_window: Cycles,
    /// Burn-rate threshold for the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold for the slow window.
    pub slow_burn: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        // 4 GHz frame of reference: 100k cycles = 25 µs objective, a
        // 0.5 ms fast window, a 5 ms slow window.
        SloSpec {
            latency_objective: 100_000,
            error_budget: 0.01,
            fast_window: 2_000_000,
            slow_window: 20_000_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
        }
    }
}

/// Sliding-window resolution: the slow window is divided into this many
/// buckets; the fast window reads the newest few.
const BUCKETS: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    start: Cycles,
    good: u64,
    bad: u64,
}

/// A point-in-time reading of the tracker, embeddable in a postmortem
/// bundle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloHealth {
    /// Requests inside the objective so far.
    pub good: u64,
    /// Requests outside it (slow, failed, timed out, shed).
    pub bad: u64,
    /// Fast-window burn rate at the last recorded time.
    pub fast_burn: f64,
    /// Slow-window burn rate at the last recorded time.
    pub slow_burn: f64,
    /// Edge-triggered breach episodes so far.
    pub breaches: u64,
    /// Time of the first breach, if any ever fired.
    pub first_breach: Option<Cycles>,
    /// Whether the tracker is inside a breach episode right now.
    pub in_breach: bool,
}

impl SloHealth {
    /// Whether the objective was ever breached.
    pub fn breached(&self) -> bool {
        self.breaches > 0
    }
}

/// The tracker itself; usually held behind an [`SloHandle`].
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    width: Cycles,
    buckets: Vec<Bucket>,
    good: u64,
    bad: u64,
    breaches: u64,
    in_breach: bool,
    first_breach: Option<Cycles>,
    last_t: Cycles,
    last_eval_slot: Cycles,
    evaluations: u64,
}

impl SloTracker {
    /// A tracker evaluating `spec`.
    pub fn new(spec: SloSpec) -> Self {
        assert!(spec.error_budget > 0.0, "a zero budget can never be met");
        assert!(
            spec.fast_window <= spec.slow_window,
            "the fast window must fit inside the slow one"
        );
        let width = (spec.slow_window / BUCKETS as Cycles).max(1);
        SloTracker {
            spec,
            width,
            buckets: vec![Bucket::default(); BUCKETS],
            good: 0,
            bad: 0,
            breaches: 0,
            in_breach: false,
            first_breach: None,
            last_t: 0,
            last_eval_slot: Cycles::MAX,
            evaluations: 0,
        }
    }

    /// The objective under evaluation.
    pub fn spec(&self) -> SloSpec {
        self.spec
    }

    /// Records a completed request: `latency` cycles from arrival to
    /// done, at lane-clock time `t`.
    pub fn complete(&mut self, t: Cycles, latency: Cycles) {
        let good = latency <= self.spec.latency_objective;
        self.record(t, good);
    }

    /// Records a request that produced no useful reply (failure,
    /// timeout, shed) at time `t`.
    pub fn error(&mut self, t: Cycles) {
        self.record(t, false);
    }

    fn record(&mut self, t: Cycles, good: bool) {
        self.last_t = self.last_t.max(t);
        let b = &mut self.buckets[(t / self.width) as usize % BUCKETS];
        let start = (t / self.width) * self.width;
        if b.start != start {
            // The slot last held a window that has since slid past.
            *b = Bucket {
                start,
                good: 0,
                bad: 0,
            };
        }
        if good {
            b.good += 1;
            self.good += 1;
        } else {
            b.bad += 1;
            self.bad += 1;
        }
        // The burn-rate scan over the buckets is the only O(BUCKETS)
        // work on this path; a good record inside an already-evaluated
        // bucket cannot *start* a breach, so only bad records and
        // bucket boundaries pay for an evaluation. Breach episodes
        // therefore end with one-bucket granularity, which is well
        // inside both windows.
        let slot = t / self.width;
        if !good || slot != self.last_eval_slot {
            self.last_eval_slot = slot;
            self.evaluate(t);
        }
    }

    /// Advances the tracker's clock to `t` without recording a sample
    /// and re-evaluates the burn rule there.
    ///
    /// `SloTracker::record` only evaluates on bad records and bucket
    /// boundaries — the good path stays two counter bumps — so a tenant
    /// that goes idle right after a burst would otherwise keep a stale
    /// burn rate (and a stuck breach episode) forever. The dispatcher
    /// calls this at end of run, and periodic pollers may call it any
    /// time; `t` earlier than the last recorded sample is clamped
    /// (time never rewinds).
    pub fn tick(&mut self, t: Cycles) {
        self.last_t = self.last_t.max(t);
        self.last_eval_slot = self.last_t / self.width;
        self.evaluate(self.last_t);
    }

    /// The burn rate over the trailing `window` at time `t`: the bad
    /// fraction divided by the error budget (1.0 = burning exactly the
    /// sustainable rate; 0.0 when the window holds no samples).
    pub fn burn_rate(&self, t: Cycles, window: Cycles) -> f64 {
        let floor = t.saturating_sub(window);
        let (mut good, mut bad) = (0u64, 0u64);
        for b in &self.buckets {
            // Stale slots carry old start times and never qualify.
            if b.start >= floor && b.start <= t {
                good += b.good;
                bad += b.bad;
            }
        }
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.spec.error_budget
    }

    fn evaluate(&mut self, t: Cycles) {
        self.evaluations += 1;
        let fast = self.burn_rate(t, self.spec.fast_window);
        let slow = self.burn_rate(t, self.spec.slow_window);
        let breaching = fast >= self.spec.fast_burn && slow >= self.spec.slow_burn;
        if breaching && !self.in_breach {
            self.breaches += 1;
            self.first_breach.get_or_insert(t);
        }
        self.in_breach = breaching;
    }

    /// How many times the burn rule has been evaluated — the tracker's
    /// only O(buckets) work, so its cost per record as a count.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The current health reading.
    pub fn health(&self) -> SloHealth {
        SloHealth {
            good: self.good,
            bad: self.bad,
            fast_burn: self.burn_rate(self.last_t, self.spec.fast_window),
            slow_burn: self.burn_rate(self.last_t, self.spec.slow_window),
            breaches: self.breaches,
            first_breach: self.first_breach,
            in_breach: self.in_breach,
        }
    }
}

/// A cloneable shared handle onto one [`SloTracker`], mirroring
/// [`sb_faultplane::FaultHandle`]: the dispatcher records through one
/// clone while scenario code polls another.
#[derive(Debug, Clone)]
pub struct SloHandle(Rc<RefCell<SloTracker>>);

impl SloHandle {
    /// A fresh tracker for `spec`.
    pub fn new(spec: SloSpec) -> Self {
        SloHandle(Rc::new(RefCell::new(SloTracker::new(spec))))
    }

    /// See [`SloTracker::complete`].
    pub fn complete(&self, t: Cycles, latency: Cycles) {
        self.0.borrow_mut().complete(t, latency);
    }

    /// See [`SloTracker::error`].
    pub fn error(&self, t: Cycles) {
        self.0.borrow_mut().error(t);
    }

    /// See [`SloTracker::tick`].
    pub fn tick(&self, t: Cycles) {
        self.0.borrow_mut().tick(t);
    }

    /// See [`SloTracker::health`].
    pub fn health(&self) -> SloHealth {
        self.0.borrow().health()
    }

    /// Whether the objective was ever breached.
    pub fn breached(&self) -> bool {
        self.0.borrow().breaches > 0
    }

    /// See [`SloTracker::spec`].
    pub fn spec(&self) -> SloSpec {
        self.0.borrow().spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec {
            latency_objective: 1_000,
            error_budget: 0.01,
            fast_window: 10_000,
            slow_window: 100_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
        }
    }

    #[test]
    fn healthy_traffic_never_breaches() {
        let mut t = SloTracker::new(spec());
        for i in 0..10_000u64 {
            t.complete(i * 20, 500);
        }
        let h = t.health();
        assert_eq!(h.good, 10_000);
        assert_eq!(h.breaches, 0);
        assert_eq!(h.fast_burn, 0.0);
    }

    #[test]
    fn slow_completions_count_against_the_budget() {
        let mut t = SloTracker::new(spec());
        t.complete(10, 5_000); // 5x over the objective.
        let h = t.health();
        assert_eq!((h.good, h.bad), (0, 1));
    }

    #[test]
    fn sustained_errors_breach_and_burn_rates_read_sanely() {
        let mut t = SloTracker::new(spec());
        // Warm both windows with clean traffic...
        for i in 0..1_000u64 {
            t.complete(i * 100, 100);
        }
        // ...then a hard incident: everything fails.
        for i in 1_000..1_400u64 {
            t.error(i * 100);
        }
        let h = t.health();
        assert!(h.breached(), "a 100% error burst must breach: {h:?}");
        assert!(h.in_breach);
        assert!(h.first_breach.is_some());
        // A 100%-bad fast window burns at 1/budget = 100x.
        assert!(h.fast_burn > 50.0, "fast burn {}", h.fast_burn);
    }

    #[test]
    fn a_single_stray_error_does_not_page() {
        let mut t = SloTracker::new(spec());
        for i in 0..2_000u64 {
            t.complete(i * 100, 100);
            if i == 1_000 {
                t.error(i * 100 + 1);
            }
        }
        assert_eq!(t.health().breaches, 0, "one bad in 2000 is within budget");
    }

    #[test]
    fn breaches_are_edge_triggered_episodes() {
        let mut t = SloTracker::new(spec());
        for round in 0..3u64 {
            let base = round * 2_000_000;
            // Calm stretch fills the slow window with good samples, and
            // slides the fast window fully past the previous burst.
            for i in 0..2_000u64 {
                t.complete(base + i * 100, 100);
            }
            // Burst of errors.
            for i in 0..300u64 {
                t.error(base + 200_000 + i * 10);
            }
        }
        assert_eq!(t.health().breaches, 3, "each burst is its own episode");
    }

    #[test]
    fn tick_decays_a_stale_burn_after_idle_time() {
        let mut t = SloTracker::new(spec());
        // Warm, then a hard burst: the tracker enters a breach episode.
        for i in 0..1_000u64 {
            t.complete(i * 100, 100);
        }
        for i in 1_000..1_400u64 {
            t.error(i * 100);
        }
        let h = t.health();
        assert!(h.in_breach, "the burst must open an episode: {h:?}");
        assert!(h.fast_burn > 1.0);
        // Without tick, going idle leaves the burn stale forever: the
        // reading is unchanged no matter how much time passes.
        let stale = t.health();
        assert_eq!(stale.fast_burn, h.fast_burn);
        // Tick well past both windows: burn decays to zero and the
        // episode closes — but the episode *count* is history and stays.
        t.tick(1_400 * 100 + 10 * 100_000);
        let fresh = t.health();
        assert_eq!(fresh.fast_burn, 0.0, "windows slid past the burst");
        assert_eq!(fresh.slow_burn, 0.0);
        assert!(!fresh.in_breach, "tick must close the episode");
        assert_eq!(fresh.breaches, h.breaches, "history is preserved");
    }

    #[test]
    fn tick_never_rewinds_the_clock() {
        let mut t = SloTracker::new(spec());
        for i in 0..400u64 {
            t.error(100_000 + i * 10);
        }
        let before = t.health();
        assert!(before.in_breach);
        // A tick dated before the last sample is clamped: nothing decays.
        t.tick(0);
        let after = t.health();
        assert_eq!(after.fast_burn, before.fast_burn);
        assert!(after.in_breach);
    }

    #[test]
    fn handle_clones_share_state() {
        let h = SloHandle::new(spec());
        let h2 = h.clone();
        h2.complete(10, 100);
        h2.error(20);
        let health = h.health();
        assert_eq!((health.good, health.bad), (1, 1));
        assert!(health.fast_burn > 0.0, "{health:?}");
    }
}
