//! Locks over *simulated* time.
//!
//! The ported xv6fs file system keeps "one big lock" (§6.5 of the paper),
//! which is what caps the scalability of the YCSB experiments in
//! Figures 9–11. [`SimLock`] models a blocking mutex in the discrete-time
//! world: acquirers are serialized in request order, each handoff to a
//! *waiting* thread pays a wakeup cost (the kernel must unblock and, across
//! cores, IPI the waiter), and contended handoffs additionally pay a
//! cache-line-transfer cost for the lock word and the data it protects.

use crate::Cycles;

/// A blocking mutex in simulated time.
///
/// The lock itself holds no data; callers bracket their critical section
/// between [`SimLock::acquire`] and [`SimLock::release`], both expressed in
/// simulated cycles.
#[derive(Debug, Clone)]
pub struct SimLock {
    /// Instant at which the lock becomes free.
    free_at: Cycles,
    /// Extra cycles charged when an acquirer had to wait (futex-style block
    /// + wake through the kernel).
    pub wakeup_cost: Cycles,
    /// Extra cycles charged on any handoff between different owners
    /// (cache-line transfer of the lock word and protected data).
    pub transfer_cost: Cycles,
    /// Owner of the previous critical section, for transfer accounting.
    last_owner: Option<usize>,
    /// Number of acquisitions that found the lock held.
    pub contended_acquires: u64,
    /// Total acquisitions.
    pub acquires: u64,
    /// Total cycles spent waiting by all acquirers.
    pub wait_cycles: Cycles,
    /// EWMA of concurrent waiters (the convoy length).
    congestion: f64,
    /// Fractional slowdown of the holder per queued waiter: spinning
    /// waiters bounce the lock word and the protected cache lines,
    /// stretching every critical section — the classic big-lock convoy
    /// that makes Figures 9–11 *decline* with thread count.
    pub interference: f64,
    /// Start of the granted critical section (for interference math).
    last_start: Cycles,
}

impl SimLock {
    /// Creates a free lock with the given contention penalties.
    pub fn new(wakeup_cost: Cycles, transfer_cost: Cycles) -> Self {
        SimLock {
            free_at: 0,
            wakeup_cost,
            transfer_cost,
            last_owner: None,
            contended_acquires: 0,
            acquires: 0,
            wait_cycles: 0,
            congestion: 0.0,
            interference: 0.45,
            last_start: 0,
        }
    }

    /// A big kernel-style blocking lock: waiters block in the kernel and a
    /// wakeup costs roughly an IPI plus scheduler work.
    pub fn big_kernel_lock() -> Self {
        SimLock::new(2400, 300)
    }

    /// Requests the lock at simulated instant `now` on behalf of `owner`.
    ///
    /// Returns the instant at which the critical section may begin. The
    /// caller must later call [`SimLock::release`] with the instant its
    /// critical section ended.
    pub fn acquire(&mut self, owner: usize, now: Cycles) -> Cycles {
        self.acquires += 1;
        let mut start = now;
        if self.free_at > now {
            // Contended: wait for the holder, then pay the wakeup path.
            self.contended_acquires += 1;
            self.wait_cycles += self.free_at - now;
            start = self.free_at + self.wakeup_cost;
            self.congestion = (self.congestion * 0.92 + 1.0).min(16.0);
        } else {
            self.congestion *= 0.92;
        }
        if self.last_owner.is_some() && self.last_owner != Some(owner) {
            start += self.transfer_cost;
        }
        self.last_owner = Some(owner);
        self.last_start = start;
        start
    }

    /// Releases the lock at simulated instant `end_of_critical_section`.
    ///
    /// Under contention the lock stays busy *longer* than the holder's own
    /// critical section: queued waiters bounce the protected cache lines
    /// and the wake path runs per handoff, so the effective section is
    /// stretched by the congestion factor.
    pub fn release(&mut self, end_of_critical_section: Cycles) {
        let cs = end_of_critical_section.saturating_sub(self.last_start);
        let stretched = (cs as f64 * (1.0 + self.interference * self.congestion)) as Cycles;
        self.free_at = self.free_at.max(self.last_start + stretched.max(cs));
    }

    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.contended_acquires as f64 / self.acquires as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_same_owner_is_free() {
        let mut l = SimLock::new(100, 10);
        let t = l.acquire(0, 50);
        assert_eq!(t, 50);
        l.release(80);
        let t = l.acquire(0, 90);
        assert_eq!(t, 90);
        assert_eq!(l.contended_acquires, 0);
    }

    #[test]
    fn handoff_to_other_owner_pays_transfer() {
        let mut l = SimLock::new(100, 10);
        let t = l.acquire(0, 0);
        l.release(t + 5);
        // Lock is free by 10; owner 1 arrives later, uncontended, but pays
        // the cache-line transfer.
        let t = l.acquire(1, 50);
        assert_eq!(t, 60);
    }

    #[test]
    fn contended_acquire_waits_and_pays_wakeup() {
        let mut l = SimLock::new(100, 10);
        let t0 = l.acquire(0, 0);
        l.release(t0 + 1000); // Held until 1000.
        let t1 = l.acquire(1, 200);
        // Wait until 1000, + wakeup 100, + transfer 10.
        assert_eq!(t1, 1110);
        assert_eq!(l.contended_acquires, 1);
        assert_eq!(l.wait_cycles, 800);
    }

    #[test]
    fn serializes_three_requesters() {
        let mut l = SimLock::new(0, 0);
        l.interference = 0.0; // Pure serialization, no convoy stretch.
        let cs = 100;
        let a = l.acquire(0, 0);
        l.release(a + cs);
        let b = l.acquire(1, 0);
        l.release(b + cs);
        let c = l.acquire(2, 0);
        l.release(c + cs);
        assert_eq!(a, 0);
        assert_eq!(b, 100);
        assert_eq!(c, 200);
    }

    #[test]
    fn convoy_stretches_contended_sections() {
        let mut l = SimLock::new(0, 0);
        // Sustained contention builds congestion; an uncontended sequence
        // decays it back.
        let mut now = 0;
        for owner in 0..16usize {
            let s = l.acquire(owner % 4, now);
            l.release(s + 100);
            now = s; // Always request while held → contended.
        }
        assert!(l.congestion > 2.0);
        // The lock stays busy longer than the raw critical sections.
        let s = l.acquire(9, now);
        l.release(s + 100);
        let next = l.acquire(10, s + 100);
        assert!(next > s + 200, "convoyed handoff must be stretched");
        // Decay under no contention.
        let mut t = next + 1_000_000;
        for _ in 0..64 {
            let s = l.acquire(0, t);
            l.release(s + 1);
            t = s + 1_000_000;
        }
        assert!(l.congestion < 0.5);
    }

    #[test]
    fn contention_ratio() {
        let mut l = SimLock::new(0, 0);
        let a = l.acquire(0, 0);
        l.release(a + 100);
        l.acquire(1, 0);
        l.release(250);
        assert!((l.contention_ratio() - 0.5).abs() < 1e-9);
    }
}
