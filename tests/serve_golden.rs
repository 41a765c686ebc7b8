//! Golden serving schedules.
//!
//! `sim_golden.rs` pins what one call costs and `storage_golden.rs` what
//! the storage stack emits; this pins what the *serving loop* decides —
//! which request starts when, on which lane, what is shed, retried or
//! quarantined. For every personality × {direct, ring at the default
//! budget, ring at budget 1} × three traffic shapes it runs a few hundred
//! seeded requests and folds everything the run reports into one digest:
//! every `RunStats` field and tenant row, the fabric's action log, the
//! fault ledger and the recorder's events. The constants were captured
//! on the commit before the two dispatchers became one loop. A diff here
//! means a serving schedule moved: either a modelled mechanism really
//! changed (re-capture, and say why in the PR), or a refactor is wrong.
//!
//! Re-captured once: PR 23 moved SkyBridge's function-list page off
//! d-TLB page colour 0 (`layout::SERVER_LIST_BASE`, DESIGN.md §9), so a
//! SkyBridge call got cheaper and every start time after the first
//! moved with it: the nine `skybridge` cells are PR 23's. The other 36
//! (three trap kernels, MPK — none maps that page) are the original
//! capture.

use sb_faultplane::{FaultHandle, FaultMix, FaultPoint};
use sb_runtime::{
    AdmissionPolicy, Faulty, PoissonArrivals, RateLimit, Recorder, RequestFactory, RetryPolicy,
    RingConfig, RingRuntime, RingTransport, RunStats, RuntimeConfig, ServerRuntime, SloHandle,
    SloSpec, TenantFabric, TenantRegistry, TenantSpec, Transport,
};
use sb_sim::Cycles;
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};

const LANES: usize = 2;
const REQUESTS: usize = 400;
const SCENARIO: ServingScenario = ServingScenario::Kv;

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

/// Order-sensitive fold of a `u64` stream.
struct Digest(u64);

impl Digest {
    fn put(&mut self, v: u64) {
        self.0 = ((self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15)).rotate_left(29);
    }

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

/// Mean cycles per call on `t`'s warmed lanes, so arrival gaps can be
/// stated as a load: 64 warm-up calls per lane, then 64 measured ones.
fn calibrate(t: &mut dyn Transport, f: &mut RequestFactory) -> Cycles {
    let mut t0 = 0;
    for i in 0..128 {
        if i == 64 {
            t0 = t.now(0);
        }
        for l in 0..LANES {
            let r = f.make(t.now(l), None);
            t.call(l, &r).expect("calibration call");
        }
    }
    ((t.now(0) - t0) / 64).max(1)
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

/// The digest of one cell, plus a one-line summary for failure output.
fn run_cell(backend: &Backend, mode: Mode, traffic: Traffic) -> (u64, String) {
    let mut inner = build_backend(SCENARIO, backend, LANES);
    let mut calib = RequestFactory::new(SCENARIO.workload(), SCENARIO.payload());
    let service = calibrate(inner.as_mut(), &mut calib);
    let gap = |rho: f64| service as f64 / (LANES as f64 * rho);
    let recorder = Recorder::new(1 << 16);
    let base = RuntimeConfig {
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let mut d = Digest(0);
    let (stats, actions) = match traffic {
        Traffic::Poisson => {
            let cfg = RuntimeConfig {
                queue_capacity: 8,
                policy: AdmissionPolicy::Shed,
                ..base
            };
            let mut f = RequestFactory::new(SCENARIO.workload(), SCENARIO.payload());
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
            let mut f = RequestFactory::with_tenant_schedule(
                SCENARIO.workload(),
                SCENARIO.payload(),
                schedule,
            );
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
            let mut f = RequestFactory::new(SCENARIO.workload(), SCENARIO.payload());
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
    let summary = format!(
        "offered {} completed {} shed {}/{}/{} timed_out {} failed {} retries {} recoveries {} \
         end {} depth {} p50 {} p99 {} actions {} events {}",
        stats.offered,
        stats.completed,
        stats.shed_queue_full,
        stats.shed_deadline,
        stats.shed_rate_limit,
        stats.timed_out,
        stats.failed,
        stats.retries,
        stats.recoveries,
        stats.end,
        stats.max_queue_depth,
        stats.p50(),
        stats.p99(),
        actions,
        recorder.recorded(),
    );
    (d.0, summary)
}

/// `GOLDEN[personality][mode][traffic]`, in `Backend::all()`, [`MODES`]
/// and [`TRAFFIC`] order.
const GOLDEN: [[[u64; 3]; 3]; 5] = [
    // seL4
    [
        [
            0xd4ab_c9ca_9e2e_1801,
            0xee89_ae2c_98aa_1cba,
            0xebe4_fb7d_f63d_47e1,
        ],
        [
            0x94e1_9954_c011_c540,
            0xcc67_cfc8_c49d_95de,
            0x6611_b896_f4ac_eb75,
        ],
        [
            0x062b_05ef_b2d9_56cf,
            0xc330_bfcf_990d_edad,
            0x8bb1_f9d4_06db_fd38,
        ],
    ],
    // Fiasco.OC
    [
        [
            0xdf8f_0e97_51b2_d549,
            0x7983_8744_589a_7d4a,
            0x840d_8577_ba8b_450e,
        ],
        [
            0x0a7a_5733_826c_8713,
            0xea47_565a_d471_9ccd,
            0xfea3_fd4f_050c_616f,
        ],
        [
            0x9237_d784_5443_021f,
            0x0e63_3657_48e9_e4a1,
            0x9527_9257_8510_ff60,
        ],
    ],
    // Zircon
    [
        [
            0x421f_f1de_4bbd_3972,
            0x46c4_6a66_7acc_61bb,
            0x3e77_72f2_f111_bd79,
        ],
        [
            0xf0d6_8784_3cea_5a2e,
            0x8073_d3d2_8c03_cc9d,
            0x8a2e_bc4b_7490_a86d,
        ],
        [
            0xd25e_f11e_067c_f7b4,
            0x03e5_bdf2_6c9a_865f,
            0x7018_685e_10e3_4250,
        ],
    ],
    // skybridge (PR 23's layout)
    [
        [
            0xfd18_3633_1068_69d9,
            0x9737_0c0d_3f56_6d9d,
            0x4615_3744_49b3_3980,
        ],
        [
            0x39d9_5d54_1343_ec90,
            0x5e8c_0a33_59e0_346c,
            0x44b8_9dd0_1891_0d9a,
        ],
        [
            0x7689_942f_e3c5_5a3a,
            0x6819_97c2_01a4_244f,
            0x8465_aedb_1758_2ce4,
        ],
    ],
    // mpk
    [
        [
            0xa93f_dba8_05e5_e712,
            0x5a7e_8cb7_0d9f_a05c,
            0x8e9b_ce71_8eb1_c003,
        ],
        [
            0xdd3a_7c69_731a_380c,
            0xf0b3_2c74_0068_dae5,
            0x6b9f_4e9e_ddc3_0d39,
        ],
        [
            0x56fe_21b3_006d_1e4a,
            0x72f0_46f1_9e12_f7ad,
            0x9cd8_0415_fd9c_b9e3,
        ],
    ],
];

#[test]
fn every_serving_cell_matches_its_golden_schedule() {
    let backends = Backend::all();
    assert_eq!(
        backends.len(),
        GOLDEN.len(),
        "one golden row per personality"
    );
    let mut got = [[[0u64; 3]; 3]; 5];
    let mut moved = Vec::new();
    for (b, backend) in backends.iter().enumerate() {
        for (m, &mode) in MODES.iter().enumerate() {
            for (x, &traffic) in TRAFFIC.iter().enumerate() {
                let (digest, summary) = run_cell(backend, mode, traffic);
                got[b][m][x] = digest;
                if digest != GOLDEN[b][m][x] {
                    moved.push(format!(
                        "{} {mode:?} {traffic:?}: {digest:#018x} != {:#018x}\n    {summary}",
                        backend.label(),
                        GOLDEN[b][m][x]
                    ));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} serving schedules moved:\n{}\nmeasured table:\n{got:#018x?}",
        moved.len(),
        moved.join("\n")
    );
}
