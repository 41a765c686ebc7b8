//! The chaos scenario: seeds × fault mixes × IPC personalities.
//!
//! One chaos *cell* is a full serving run — the KV service of
//! [`super::runtime`], open-loop Poisson arrivals, retry-with-backoff and
//! transport recovery enabled — with a seeded [`FaultHandle`] wired into
//! every layer that can fail:
//!
//! * the SkyBridge transport injects inside the facility itself (handler
//!   panics and hangs, calling-key corruption, EPTP-slot eviction,
//!   connection-slot exhaustion);
//! * the trap transports inject at the call boundary through
//!   [`sb_runtime::Faulty`] (panics, hangs);
//! * the MPK transport injects through the same wrapper, plus the
//!   PKRU-restore bug ([`FaultPoint::PkruStale`]) only it can express;
//! * the dispatcher injects queue-deadline storms.
//!
//! Each cell must terminate cleanly, conserve requests
//! (`offered = completed + shed + timed_out + failed`), end with every
//! worker serving again, and leak **zero** faults — every injected
//! instance detected and recovered. A separate FS cell runs a
//! transaction workload over a [`FaultyDisk`] (transient I/O errors,
//! torn writes, power loss) and checks the committed-prefix property
//! across the remount.

use sb_faultplane::{FaultHandle, FaultMix, FaultPoint, FaultReport};
use sb_fs::{log::Log, BlockDevice, FaultyDisk, RamDisk, BSIZE};
use sb_observe::{Recorder, DEFAULT_RING_CAPACITY};
use sb_runtime::{
    run_stats_json, Faulty, PoissonArrivals, RetryPolicy, RingConfig, RunStats, RuntimeConfig,
    ServiceSpec, SkyBridgeTransport, Transport,
};
use sb_sentinel::{postmortem, BundleReceipt, PostmortemInput, PostmortemSpec, SloHandle, SloSpec};

use crate::scenarios::runtime::{
    build_backend_with_spec, request_factory, serve_open_loop, Backend,
};

/// Lanes (and cores) per chaos cell.
pub const CHAOS_WORKERS: usize = 2;

/// The DoS-timeout budget (§7) a chaos cell arms so injected handler
/// hangs are forcibly recoverable. Generous: a healthy KV request
/// finishes in a few thousand cycles.
pub const HANG_BUDGET: u64 = 200_000;

/// The fault mixes the chaos matrix sweeps for serving cells.
pub fn serving_mixes() -> Vec<FaultMix> {
    vec![
        FaultMix::crashes(),
        FaultMix::security(),
        FaultMix::storms(),
        FaultMix::everything(),
    ]
}

/// The fault mixes the chaos matrix sweeps for file-system cells.
pub fn fs_mixes() -> Vec<FaultMix> {
    vec![
        FaultMix::storage(),
        FaultMix::storage()
            .with(FaultPoint::PowerLoss, 60)
            .named("storage+power"),
    ]
}

/// The SLO every serving chaos cell is held to. Generous against
/// healthy service (a clean KV call finishes in a few thousand cycles,
/// far under the objective) but tight enough that an injected crash or
/// storm burst burns error budget visibly: a breach means the cell was
/// actually degraded, not that the objective was mis-sized.
pub fn chaos_slo() -> SloSpec {
    SloSpec {
        latency_objective: 150_000,
        error_budget: 0.05,
        fast_window: 1_000_000,
        slow_window: 8_000_000,
        fast_burn: 4.0,
        slow_burn: 1.0,
    }
}

/// The flight-recorder drill's mix: handler panics at certainty, so the
/// very first served call kills the server deterministically.
pub fn drill_mix() -> FaultMix {
    FaultMix::none()
        .with(FaultPoint::HandlerPanic, 10_000)
        .named("drill")
}

/// One serving chaos cell's result.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The run's dispatcher statistics.
    pub stats: RunStats,
    /// The fault ledger roll-up, the one record of the cell's faults. The
    /// suite asserts `report.leaked() == 0`.
    pub report: FaultReport,
    /// Online SLO health over the cell, evaluated in the dispatcher
    /// against [`chaos_slo`].
    pub slo: sb_sentinel::SloHealth,
    /// The flight-recorder receipt — present exactly when the cell was
    /// armed with a [`PostmortemSpec`] and tripped (leaked fault or SLO
    /// breach).
    pub postmortem: Option<BundleReceipt>,
}

impl ChaosOutcome {
    /// The conservation invariant: every offered request has exactly one
    /// outcome.
    pub fn conserved(&self) -> bool {
        self.stats.conserved()
    }
}

/// Runs one serving chaos cell: `requests` Poisson arrivals against
/// `backend` under `mix`, everything seeded by `seed`.
///
/// With a `ring` geometry every request travels through
/// submission/completion rings and the adaptive doorbell, so mid-batch
/// faults (a handler panic killing the rest of a cut batch, key
/// corruption at the crossing, deadline storms expiring queued frames)
/// exercise the partial-consumption path; the invariants are unchanged.
/// With a `flight` spec the flight recorder is armed: if the cell ends
/// with a leaked fault or an SLO breach, a postmortem bundle is written
/// under its `dir` and the receipt returned in the outcome.
pub fn run_chaos_cell(
    backend: &Backend,
    seed: u64,
    mix: &FaultMix,
    requests: u64,
    ring: Option<RingConfig>,
    flight: Option<&PostmortemSpec>,
) -> ChaosOutcome {
    chaos_cell(backend, seed, mix, requests, ring, flight, false)
}

/// The flight-recorder drill: a cell under [`drill_mix`] with retries
/// *disabled* and quiescence *skipped*, so the injected panic is
/// detected but never recovered — a guaranteed leak that must produce a
/// postmortem bundle. The chaos bin runs this to prove the recorder
/// fires end-to-end before trusting the "no bundle means no incident"
/// reading of a clean run.
pub fn run_postmortem_drill(
    backend: &Backend,
    seed: u64,
    requests: u64,
    flight: &PostmortemSpec,
) -> ChaosOutcome {
    chaos_cell(
        backend,
        seed,
        &drill_mix(),
        requests,
        None,
        Some(flight),
        true,
    )
}

/// One serving cell of [`run_chaos_cell`]. `drill` withholds every
/// recovery path (no retry policy, no quiesce) so injected faults stay
/// leaked on purpose.
fn chaos_cell(
    backend: &Backend,
    seed: u64,
    mix: &FaultMix,
    requests: u64,
    ring: Option<RingConfig>,
    flight: Option<&PostmortemSpec>,
    drill: bool,
) -> ChaosOutcome {
    let spec = ServiceSpec {
        timeout: Some(HANG_BUDGET),
        ..ServiceSpec::default()
    };
    let faults = FaultHandle::new(seed, mix.clone());

    // The cell runs with tracing on: phase spans from the transport and
    // queue events from the dispatcher, for the flight recorder's bundle.
    let recorder = Recorder::new(DEFAULT_RING_CAPACITY);

    // Transports inject from the shared plane — the SkyBridge transport
    // from inside the facility, the trap transports through the
    // call-boundary wrapper. Faults attach only after setup, so boot and
    // registration run in calm weather.
    let engine: Box<dyn Transport> = match backend {
        Backend::SkyBridge => {
            let mut t = SkyBridgeTransport::new(CHAOS_WORKERS, &spec);
            t.attach_faults(faults.clone());
            Box::new(t)
        }
        _ => Box::new(Faulty::new(
            build_backend_with_spec(&spec, backend, CHAOS_WORKERS),
            faults.clone(),
            HANG_BUDGET,
        )),
    };

    let slo = SloHandle::new(chaos_slo());

    let cfg = RuntimeConfig {
        queue_capacity: 64,
        // Generous in calm weather; injected storms collapse it to zero.
        queue_deadline: Some(4_000_000),
        retry: if drill {
            None
        } else {
            Some(RetryPolicy::default())
        },
        faults: Some(faults.clone()),
        recorder: recorder.clone(),
        slo: Some(slo.clone()),
        ..RuntimeConfig::default()
    };
    let mut factory = request_factory();
    let arrivals = PoissonArrivals::new(12_000.0, seed ^ 0xa55a).take(requests as usize);
    let (stats, mut engine) = serve_open_loop(engine, ring, cfg, arrivals, &mut factory, |s, _| s);

    // Quiesce: stop injecting, run every lane's recovery path (revive a
    // still-dead server, rebind a still-unbound connection), then prove
    // liveness with clean probe calls. A successful call is also the
    // recovery event for a corrupted-key instance, so keep probing until
    // none are outstanding. The drill skips all of this: its whole point
    // is to leave the injected instance unrecovered.
    faults.disarm();
    if !drill {
        for w in 0..CHAOS_WORKERS {
            engine.recover(w);
            let probe = factory.make(0, None);
            engine
                .call(w, &probe)
                .expect("every lane must serve cleanly after the chaos run");
        }
        let mut probes = 0;
        while faults.outstanding(FaultPoint::KeyCorrupt) > 0 && probes < 16 {
            let probe = factory.make(0, None);
            let _ = engine.call(probes % CHAOS_WORKERS, &probe);
            probes += 1;
        }
    }

    let report = faults.report();
    let health = slo.health();
    let mut bundle = None;
    if let Some(spec) = flight {
        if report.unrecovered() > 0 || health.breached() {
            // The bundle's `run` block is the chaos row's `run`, byte
            // for byte: one renderer for both.
            let run = run_stats_json(&stats);
            let pmu = engine.pmu();
            let tag = format!("{}_{}_{seed:#x}", backend.label(), mix.name);
            let input = PostmortemInput {
                reason: if report.unrecovered() > 0 {
                    "fault_unrecovered"
                } else {
                    "slo_breach"
                },
                tag: &tag,
                recorder: Some(&recorder),
                run: Some(&run),
                pmu: pmu.as_ref(),
                faults: Some(&report),
                slo: Some(health),
            };
            bundle = Some(
                postmortem::write(spec, &input)
                    .expect("the flight-recorder bundle must be writable"),
            );
        }
    }

    ChaosOutcome {
        stats,
        report,
        slo: health,
        postmortem: bundle,
    }
}

/// First block of the FS cell's log region.
const FS_LOG_START: u32 = 2;
/// Blocks in the FS cell's log region.
const FS_LOG_SIZE: u32 = 34;
/// Home blocks each transaction rewrites.
const FS_HOME: [u32; 3] = [100, 101, 102];

/// One FS chaos cell's result.
#[derive(Debug)]
pub struct FsChaosOutcome {
    /// Transactions attempted before the (possible) power loss.
    pub attempted: u8,
    /// Generation the surviving disk holds after remount recovery — the
    /// committed prefix is transactions `1..=committed`.
    pub committed: u8,
    /// Whether the remount found and discarded a torn commit header.
    pub torn_discarded: bool,
    /// Blocks the remount replayed from a committed log.
    pub replayed: usize,
    /// The fault ledger roll-up.
    pub report: FaultReport,
}

fn generation_block(g: u8) -> [u8; BSIZE] {
    let mut b = [0u8; BSIZE];
    b.fill(g);
    b
}

/// Runs one FS chaos cell: `txns` write-ahead-logged transactions over a
/// [`FaultyDisk`], then a remount on the surviving state.
///
/// Each transaction `g` rewrites the same three home blocks with the
/// generation value `g`, so the committed-prefix property is directly
/// observable: after remount every home block must hold one and the same
/// generation `committed <= attempted` — transactions apply atomically,
/// in order, and a crash never splices two generations together.
///
/// # Panics
///
/// Panics if the surviving state violates the committed-prefix property.
pub fn run_fs_chaos(seed: u64, mix: &FaultMix, txns: u8) -> FsChaosOutcome {
    let faults = FaultHandle::new(seed, mix.clone());
    let mut disk = FaultyDisk::new(RamDisk::new(128), faults.clone());
    let mut log = Log::new(FS_LOG_START, FS_LOG_SIZE);

    let mut attempted = 0;
    for g in 1..=txns {
        if disk.dead {
            break; // Power is gone; nothing more reaches the medium.
        }
        attempted = g;
        log.begin_op();
        for &bno in &FS_HOME {
            log.write(bno, &generation_block(g));
        }
        log.end_op(&mut disk);
    }

    // Power returns: remount the surviving state and recover. The replay
    // (or torn-header discard) is the batched recovery path for every
    // outstanding torn-write and power-loss instance.
    faults.disarm();
    let mut survivor = disk.into_survivor();
    let outcome = Log::recover_scan(FS_LOG_START, &mut survivor);
    faults.recover_all(FaultPoint::TornWrite);
    faults.recover_all(FaultPoint::PowerLoss);

    let mut generations = [0u8; FS_HOME.len()];
    for (i, &bno) in FS_HOME.iter().enumerate() {
        let buf = survivor.read_block(bno);
        assert!(
            buf.iter().all(|&b| b == buf[0]),
            "home block {bno} splices generations after recovery"
        );
        generations[i] = buf[0];
    }
    assert!(
        generations.iter().all(|&g| g == generations[0]),
        "recovery left a mix of generations: {generations:?}"
    );
    let committed = generations[0];
    assert!(
        committed <= attempted,
        "a never-attempted generation {committed} materialized"
    );

    FsChaosOutcome {
        attempted,
        committed,
        torn_discarded: outcome.torn_discarded,
        replayed: outcome.replayed,
        report: faults.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rate_limit_shed_is_an_outcome() {
        let mut stats = RunStats::new("rate-limited", 1);
        stats.offered = 3;
        stats.completed = 2;
        stats.shed_rate_limit = 1;
        let out = ChaosOutcome {
            stats,
            report: FaultReport::default(),
            slo: sb_sentinel::SloHealth::default(),
            postmortem: None,
        };
        assert!(out.conserved(), "{:?}", out.stats);
    }

    #[test]
    fn skybridge_cell_under_crashes_terminates_clean() {
        let out = run_chaos_cell(
            &Backend::SkyBridge,
            0xc0de_0001,
            &FaultMix::crashes(),
            120,
            None,
            None,
        );
        assert!(out.conserved(), "{:?}", out.stats);
        assert_eq!(out.report.leaked(), 0, "{}", out.report);
        assert!(out.stats.completed > 0);
    }

    #[test]
    fn ring_cell_under_everything_terminates_clean() {
        let out = run_chaos_cell(
            &Backend::SkyBridge,
            0xc0de_0002,
            &FaultMix::everything(),
            120,
            Some(RingConfig::default()),
            None,
        );
        assert!(out.conserved(), "{:?}", out.stats);
        assert_eq!(out.report.leaked(), 0, "{}", out.report);
        assert!(out.stats.completed > 0);
    }

    #[test]
    fn mpk_cell_under_security_terminates_clean() {
        // The security mix carries the PKRU-restore bug at its highest
        // weight; only the MPK backend can express it (other transports
        // rescind the injection), so this cell is the one that proves
        // stale rights are detected by the walk and recovered by the
        // quiesce re-arm.
        let out = run_chaos_cell(
            &Backend::Mpk,
            0xc0de_0005,
            &FaultMix::security(),
            120,
            None,
            None,
        );
        assert!(out.conserved(), "{:?}", out.stats);
        assert_eq!(out.report.leaked(), 0, "{}", out.report);
        assert!(out.stats.completed > 0);
    }

    #[test]
    fn drill_leaks_on_purpose_and_writes_a_schema_clean_bundle() {
        let dir = std::env::temp_dir().join("sb_chaos_drill_test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = PostmortemSpec::in_dir(&dir);
        let out = run_postmortem_drill(&Backend::SkyBridge, 0xd811, 60, &spec);
        assert!(out.report.injected() > 0, "the drill must actually inject");
        assert!(out.report.unrecovered() > 0, "{}", out.report);
        let receipt = out
            .postmortem
            .expect("an unrecovered fault must trip the flight recorder");
        // The bundle parses, carries the schema, and its capture block
        // agrees with the receipt to the event.
        let bundle = receipt.read_back().expect("bundle is schema-clean");
        assert_eq!(
            bundle.get("reason").and_then(sb_observe::Json::as_str),
            Some("fault_unrecovered")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watched_cell_without_incident_writes_nothing() {
        let dir = std::env::temp_dir().join("sb_chaos_calm_test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = PostmortemSpec::in_dir(&dir);
        // No faults armed: the cell runs in calm weather and must not
        // trip the recorder.
        let out = run_chaos_cell(
            &Backend::SkyBridge,
            0xca11,
            &FaultMix::none(),
            80,
            None,
            Some(&spec),
        );
        assert_eq!(out.report.injected(), 0);
        assert!(!out.slo.breached(), "calm weather must hold the SLO");
        assert!(out.postmortem.is_none());
        assert!(!dir.exists(), "no bundle directory for a clean run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_cell_holds_committed_prefix() {
        let mixes = fs_mixes();
        for seed in 0..24u64 {
            for mix in &mixes {
                // run_fs_chaos asserts the prefix property internally.
                let out = run_fs_chaos(0xf5_0000 + seed, mix, 12);
                assert_eq!(out.report.leaked(), 0, "seed {seed}: {}", out.report);
            }
        }
    }
}
