//! Golden serving schedules.
//!
//! `sim_golden.rs` pins what one call costs and `storage_golden.rs` what
//! the storage stack emits; this pins what the *serving loop* decides —
//! which request starts when, on which lane, what is shed, retried or
//! quarantined. For every personality × {direct, ring at the default
//! budget, ring at budget 1} × three traffic shapes it runs a few hundred
//! seeded requests and folds everything the run reports into one digest:
//! every `RunStats` field and tenant row, the fabric's action log, the
//! fault ledger and the recorder's events. Each of the 45 digests is a
//! row of `results/pins/serve_golden.json`, first captured before the two
//! dispatchers became one loop. A moved row means a serving schedule
//! moved: either a modelled mechanism really changed (re-capture, and say
//! why in the change), or a refactor is wrong.

mod support;

use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
use sb_runtime::{
    AdmissionPolicy, Faulty, PoissonArrivals, RateLimit, Recorder, RequestFactory, RetryPolicy,
    RingConfig, RingRuntime, RingTransport, RunStats, RuntimeConfig, ServerRuntime, SloHandle,
    SloSpec, TenantFabric, TenantRegistry, TenantSpec, Transport,
};
use sb_sim::Cycles;
use skybridge_repro::scenarios::runtime::{
    build_backend, calibrate, request_factory, workload, Backend, PAYLOAD,
};
use support::{pins, Fold};

const LANES: usize = 2;
const REQUESTS: usize = 400;

#[derive(Debug, Clone, Copy)]
enum Mode {
    Direct,
    /// Ring mode at the given batch budget.
    Ring(usize),
}

#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// Plain Poisson at ρ≈0.9, `Shed`, capacity 8.
    Poisson,
    /// Three weighted tenants at ρ≈4, one token-bucketed, one shedding
    /// at its bound, the others blocking.
    Tenants,
    /// Injected handler panics, hangs and deadline storms under retry,
    /// a queue deadline and an SLO tracker.
    Chaos,
}

const MODES: [Mode; 3] = [Mode::Direct, Mode::Ring(8), Mode::Ring(1)];
const TRAFFIC: [Traffic; 3] = [Traffic::Poisson, Traffic::Tenants, Traffic::Chaos];

impl Fold {
    fn stats(&mut self, s: &RunStats) {
        for v in [
            s.workers as u64,
            s.offered,
            s.completed,
            s.shed_queue_full,
            s.shed_deadline,
            s.shed_rate_limit,
            s.timed_out,
            s.failed,
            s.retries,
            s.recoveries,
            s.bytes_copied,
            s.start,
            s.end,
            s.max_queue_depth as u64,
            s.latencies.len() as u64,
            s.p50(),
            s.p95(),
            s.p99(),
            s.mean().to_bits(),
        ] {
            self.put(v);
        }
        for &b in &s.busy {
            self.put(b);
        }
        for (&id, t) in &s.tenants {
            for v in [
                id as u64,
                t.offered,
                t.completed,
                t.shed_queue_full,
                t.shed_deadline,
                t.shed_rate_limit,
                t.timed_out,
                t.failed,
                t.percentile(50.0),
                t.percentile(95.0),
                t.p99(),
                t.latencies.mean().to_bits(),
            ] {
                self.put(v);
            }
        }
    }
}

fn slo(service: Cycles) -> SloSpec {
    SloSpec {
        latency_objective: 3 * service,
        error_budget: 0.05,
        fast_window: 50 * service,
        slow_window: 500 * service,
        fast_burn: 10.0,
        slow_burn: 2.0,
    }
}

fn tenant_registry(service: Cycles) -> TenantRegistry {
    let spec = |weight, rate| TenantSpec {
        weight,
        queue_capacity: 4,
        policy: AdmissionPolicy::Block,
        rate,
        slo: Some(slo(service)),
    };
    let shedding = TenantSpec {
        policy: AdmissionPolicy::Shed,
        ..spec(2, None)
    };
    let bucket = RateLimit {
        per_mcycle: 1e6 / service as f64,
        burst: 4.0,
    };
    TenantRegistry::new(spec(1, None))
        .with(1, shedding)
        .with(2, spec(4, Some(bucket)))
}

/// Runs one cell on whichever runtime `mode` names and returns the
/// stats with the fabric's action-log length.
fn serve<T: Transport>(
    mode: Mode,
    transport: T,
    cfg: RuntimeConfig,
    gap: f64,
    factory: &mut RequestFactory,
) -> (RunStats, usize, T) {
    let arrivals = PoissonArrivals::new(gap, 0x5e7e_901d).take(REQUESTS);
    let actions = |f: &TenantFabric| f.actions().len();
    match mode {
        Mode::Direct => {
            let mut transport = transport;
            let mut rt = ServerRuntime::new(&mut transport, cfg);
            let stats = rt.run_open_loop(arrivals, factory);
            let n = actions(rt.fabric());
            (stats, n, transport)
        }
        Mode::Ring(batch_budget) => {
            let mut ring = RingTransport::new(
                transport,
                RingConfig {
                    batch_budget,
                    ..RingConfig::default()
                },
            );
            let mut rt = RingRuntime::new(&mut ring, cfg);
            let stats = rt.run_open_loop(arrivals, factory);
            let n = actions(rt.fabric());
            (stats, n, ring.into_inner())
        }
    }
}

/// The digest of one cell.
fn run_cell(backend: &Backend, mode: Mode, traffic: Traffic) -> u64 {
    let inner = build_backend(backend, LANES);
    // Arrival gaps are stated as a load on the workload's calibrated
    // service time.
    let service = calibrate(backend, 64, 64).quantum();
    let gap = |rho: f64| service as f64 / (LANES as f64 * rho);
    let recorder = Recorder::new(1 << 16);
    let base = RuntimeConfig {
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let mut d = Fold::default();
    let (stats, actions) = match traffic {
        Traffic::Poisson => {
            let cfg = RuntimeConfig {
                queue_capacity: 8,
                policy: AdmissionPolicy::Shed,
                ..base
            };
            let mut f = request_factory();
            let (s, a, _) = serve(mode, inner, cfg, gap(0.9), &mut f);
            (s, a)
        }
        Traffic::Tenants => {
            let cfg = RuntimeConfig {
                tenants: Some(tenant_registry(service)),
                ..base
            };
            // Tenant 2 offers 4/7 of the load, many times its bucket; the
            // other two alone still overload the lanes.
            let schedule = (0..REQUESTS)
                .map(|i| [2, 2, 1, 2, 0, 1, 2][i % 7])
                .collect();
            let mut f = RequestFactory::with_tenant_schedule(workload(), PAYLOAD, schedule);
            let (s, a, _) = serve(mode, inner, cfg, gap(4.0), &mut f);
            (s, a)
        }
        Traffic::Chaos => {
            let faults = FaultHandle::new(
                0xc4a0_5eed,
                FaultMix::none()
                    .with(FaultPoint::HandlerPanic, 1_000)
                    .with(FaultPoint::HandlerHang, 500)
                    .with(FaultPoint::DeadlineStorm, 300),
            );
            let tracker = SloHandle::new(slo(service));
            let cfg = RuntimeConfig {
                queue_capacity: 16,
                queue_deadline: Some(40 * service),
                // One retry, so some requests exhaust it and end as
                // `failed` / `timed_out`.
                retry: Some(RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                }),
                faults: Some(faults.clone()),
                slo: Some(tracker.clone()),
                ..base
            };
            let faulty = Faulty::new(inner, faults.clone(), 20 * service);
            let mut f = request_factory();
            let (s, a, mut faulty) = serve(mode, faulty, cfg, gap(0.7), &mut f);
            // Close any lane still dead at end of run, then read the ledger.
            faults.disarm();
            for l in 0..LANES {
                faulty.recover(l);
            }
            let r = faults.report();
            for v in [r.injected(), r.detected(), r.recovered(), r.leaked()] {
                d.put(v);
            }
            let h = tracker.health();
            for v in [h.good, h.bad, h.breaches] {
                d.put(v);
            }
            (s, a)
        }
    };
    d.stats(&stats);
    d.put(actions as u64);
    d.put(recorder.recorded());
    for lane in 0..recorder.lane_count() {
        for e in recorder.events(lane) {
            d.put(e.t);
            d.put(e.corr);
        }
    }
    d.0
}

#[test]
fn every_serving_cell_matches_its_golden_schedule() {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        for mode in MODES {
            for traffic in TRAFFIC {
                let case = format!("{} {mode:?} {traffic:?}", backend.label());
                rows.push((case, run_cell(&backend, mode, traffic)));
            }
        }
    }
    pins::check(rows);
}
