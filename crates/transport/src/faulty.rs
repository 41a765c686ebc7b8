//! Transport-agnostic chaos: a fault-injecting [`Transport`] decorator.
//!
//! The SkyBridge facility injects handler panics and hangs *inside*
//! itself (`skybridge::SkyBridge::attach_faults`), where the real
//! detection machinery lives. Other transports have no such interior, so
//! the chaos suite wraps them in [`Faulty`]: the same
//! [`FaultPoint::HandlerPanic`] / [`FaultPoint::HandlerHang`] schedule,
//! applied at the call boundary — a panic kills the lane's server until
//! [`Transport::recover`] respawns it; a hang burns the budget and
//! surfaces as a timeout. Detection and recovery accounting land in the
//! same ledger, so the chaos invariants hold uniformly across
//! personalities.

use sb_faultplane::{FaultHandle, FaultPoint};
use sb_sim::Cycles;

use crate::transport::{CallError, Transport};
use crate::wire::Request;

/// A fault-injecting decorator around any transport.
pub struct Faulty<T: Transport> {
    inner: T,
    faults: FaultHandle,
    /// Lane `l`'s server died (injected panic) and awaits recovery.
    dead: Vec<bool>,
    /// Lane `l`'s armed PKRU went stale (injected restore bug): every
    /// call faults in the handler until recovery re-arms the rights.
    stale: Vec<bool>,
    /// Cycles an injected hang consumes before the forced return.
    hang: Cycles,
}

impl<T: Transport> Faulty<T> {
    /// Wraps `inner`, injecting per `faults`. `hang` is the per-call
    /// budget an injected hang burns before control is forced back.
    pub fn new(inner: T, faults: FaultHandle, hang: Cycles) -> Self {
        let lanes = inner.lanes();
        Faulty {
            inner,
            faults,
            dead: vec![false; lanes],
            stale: vec![false; lanes],
            hang,
        }
    }

    /// Panic/hang interception ahead of the real call. `Ok(())` means
    /// "no injection — delegate".
    fn intercept(&mut self, lane: usize) -> Result<(), CallError> {
        if self.dead[lane] {
            // Still dead: keep refusing without opening new instances.
            return Err(CallError::Failed("server dead (injected crash)".into()));
        }
        if self.faults.fire(FaultPoint::HandlerPanic) {
            self.dead[lane] = true;
            self.faults.detected(FaultPoint::HandlerPanic);
            return Err(CallError::Failed("handler panicked (injected)".into()));
        }
        if self.faults.fire(FaultPoint::HandlerHang) {
            // The hang spins until the watchdog budget forces a return;
            // the forced return is the recovery.
            let t = self.inner.now(lane);
            self.inner.wait_until(lane, t.saturating_add(self.hang));
            self.faults.recovered(FaultPoint::HandlerHang);
            return Err(CallError::Timeout { elapsed: self.hang });
        }
        if self.faults.fire(FaultPoint::PkruStale) {
            // A restore bug can only misbehave on a transport with real
            // per-lane PKRU state (the MPK personality), and opening a
            // second instance on an already-stale lane would double-book
            // one episode — rescind in both cases.
            if !self.stale[lane] && self.inner.inject_pkru_stale(lane) {
                self.stale[lane] = true;
            } else {
                self.faults.rescind(FaultPoint::PkruStale);
            }
        }
        Ok(())
    }
}

impl<T: Transport> Transport for Faulty<T> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.inner.now(lane)
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        self.inner.wait_until(lane, time);
    }

    fn bind(&mut self, lane: usize) -> bool {
        self.inner.bind(lane)
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        self.intercept(lane)?;
        let out = self.inner.call(lane, req);
        if out.is_err() && self.stale[lane] {
            // The stale rights surfaced as a real fault (the MPK walk
            // denied the handler's own records): the bug is observed.
            self.faults.detected(FaultPoint::PkruStale);
        }
        out
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.inner.reply(lane)
    }

    fn recover(&mut self, lane: usize) -> bool {
        let dead = std::mem::replace(&mut self.dead[lane], false);
        let stale = std::mem::replace(&mut self.stale[lane], false);
        if dead || stale {
            // Respawn/re-arm the transport underneath (a fresh server
            // thread on the lane's endpoint, restored PKRU) where it
            // supports that;
            // the decorator-level revive is the recovery either way.
            self.inner.recover(lane);
            if dead {
                self.faults.recovered(FaultPoint::HandlerPanic);
            }
            if stale {
                self.faults.recovered(FaultPoint::PkruStale);
            }
            return true;
        }
        self.inner.recover(lane)
    }

    fn bytes_copied(&self) -> u64 {
        self.inner.bytes_copied()
    }

    fn attach_recorder(&mut self, recorder: sb_observe::Recorder) {
        self.inner.attach_recorder(recorder);
    }

    fn inject_pkru_stale(&mut self, lane: usize) -> bool {
        self.inner.inject_pkru_stale(lane)
    }

    fn pmu(&self) -> Option<sb_sim::Pmu> {
        self.inner.pmu()
    }
}

#[cfg(test)]
mod tests {
    use sb_faultplane::FaultMix;

    use super::*;
    use crate::transport::FixedServiceTransport;

    fn req(id: u64) -> Request {
        Request {
            id,
            arrival: 0,
            key: id,
            write: false,
            payload: 16,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn injected_panic_kills_until_recover() {
        let h = FaultHandle::new(4, FaultMix::none().with(FaultPoint::HandlerPanic, 10_000));
        let mut t = Faulty::new(FixedServiceTransport::new(1, 100), h.clone(), 1_000);
        assert!(matches!(t.call(0, &req(0)), Err(CallError::Failed(_))));
        assert!(matches!(t.call(0, &req(1)), Err(CallError::Failed(_))));
        assert_eq!(h.injected_at(FaultPoint::HandlerPanic), 1);
        assert!(t.recover(0));
        h.disarm();
        t.call(0, &req(2)).unwrap();
        let r = h.report();
        assert_eq!((r.injected(), r.leaked()), (1, 0), "{r}");
    }

    #[test]
    fn injected_hang_times_out_and_recovers_in_place() {
        let h = FaultHandle::new(4, FaultMix::none().with(FaultPoint::HandlerHang, 10_000));
        let mut t = Faulty::new(FixedServiceTransport::new(1, 100), h.clone(), 5_000);
        let t0 = t.now(0);
        match t.call(0, &req(0)) {
            Err(CallError::Timeout { elapsed }) => assert_eq!(elapsed, 5_000),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(t.now(0) - t0, 5_000, "the hang burns real lane time");
        let r = h.report();
        assert_eq!((r.injected(), r.leaked()), (1, 0), "{r}");
    }

    #[test]
    fn pkru_stale_is_rescinded_on_transports_without_pkru() {
        // FixedServiceTransport has no PKRU to stale: every injection
        // must rescind, so the ledger stays clean (nothing to leak).
        let h = FaultHandle::new(4, FaultMix::none().with(FaultPoint::PkruStale, 10_000));
        let mut t = Faulty::new(FixedServiceTransport::new(1, 100), h.clone(), 1_000);
        for i in 0..8 {
            t.call(0, &req(i)).unwrap();
        }
        let r = h.report();
        assert_eq!((r.injected(), r.leaked()), (0, 0), "{r}");
    }

    #[test]
    fn pkru_stale_on_mpk_is_detected_and_recovered() {
        use crate::mpk::MpkTransport;
        use crate::service::ServiceSpec;

        let h = FaultHandle::new(4, FaultMix::none().with(FaultPoint::PkruStale, 10_000));
        let mut t = Faulty::new(
            MpkTransport::new(1, &ServiceSpec::default()),
            h.clone(),
            1_000,
        );
        // First call arms the stale PKRU and then faults in the handler.
        assert!(matches!(t.call(0, &req(0)), Err(CallError::Failed(_))));
        assert_eq!(h.injected_at(FaultPoint::PkruStale), 1);
        // Re-injections on the already-stale lane rescind; the lane
        // keeps faulting off the one real episode.
        assert!(matches!(t.call(0, &req(1)), Err(CallError::Failed(_))));
        assert_eq!(h.injected_at(FaultPoint::PkruStale), 1);
        assert!(t.recover(0));
        h.disarm();
        t.call(0, &req(2)).unwrap();
        let r = h.report();
        assert_eq!(r.injected(), 1);
        assert_eq!(r.detected(), 1, "the walk's pkey fault is the detection");
        assert_eq!(r.recovered(), 1, "re-arming the lane is the recovery");
        assert_eq!(r.leaked(), 0, "{r}");
    }

    #[test]
    fn transparent_when_nothing_fires() {
        let h = FaultHandle::new(4, FaultMix::none());
        let mut t = Faulty::new(FixedServiceTransport::new(2, 100), h.clone(), 1_000);
        for i in 0..10 {
            t.call((i % 2) as usize, &req(i)).unwrap();
        }
        assert_eq!(h.report().injected(), 0);
        assert!(!t.recover(0));
    }
}
