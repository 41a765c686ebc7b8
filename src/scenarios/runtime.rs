//! Runtime-backed serving mode for the evaluation scenarios.
//!
//! [`scenarios::kv`](crate::scenarios::kv) and
//! [`scenarios::sqlite`](crate::scenarios::sqlite) drive one client in a
//! closed lock-step loop — right for latency figures, blind to queueing.
//! This module runs the Figure 1 KV store *as a service* on the
//! `sb-runtime` dispatcher: N server threads pinned to simulated cores,
//! a bounded lane queue with admission control, and open-loop Poisson
//! arrivals through the direct queue or the rings, so saturation,
//! shedding, and tail latency become measurable per IPC backend.
//!
//! Every serving run serves one workload, defined here once: the service
//! is [`ServiceSpec::default()`] and the requests are [`workload`] —
//! YCSB-A over its records with [`PAYLOAD`]-byte payloads. The sweeps
//! hold it fixed and swap only the isolation mechanism ([`Backend`]).

use sb_microkernel::Personality;
use sb_runtime::{
    MpkTransport, PoissonArrivals, RequestFactory, RingConfig, RingRuntime, RingTransport,
    RunStats, RuntimeConfig, ServerRuntime, ServiceSpec, SkyBridgeTransport, TenantFabric,
    Transport, TrapIpcTransport,
};
use sb_sim::Cycles;
use sb_ycsb::WorkloadSpec;

/// Which IPC backend serves the requests. Each variant builds to one
/// [`Transport`] implementation.
#[derive(Debug, Clone)]
pub enum Backend {
    /// `direct_server_call` over VMFUNC (one connection per lane).
    SkyBridge,
    /// Synchronous kernel IPC under the given personality.
    Trap(Personality),
    /// MPK protection-key domain crossing: two `WRPKRU` flips in one
    /// address space, no kernel on the data path.
    Mpk,
}

impl Backend {
    /// Display label (matches the transport's).
    pub fn label(&self) -> &str {
        match self {
            Backend::SkyBridge => "skybridge",
            Backend::Trap(p) => p.name,
            Backend::Mpk => "mpk",
        }
    }

    /// The five personalities the scaling sweep compares: the three
    /// trap-based kernels, then SkyBridge, then the MPK crossing.
    pub fn all() -> Vec<Backend> {
        let mut v: Vec<Backend> = Personality::all().into_iter().map(Backend::Trap).collect();
        v.push(Backend::SkyBridge);
        v.push(Backend::Mpk);
        v
    }
}

/// Wire bytes per request of the serving workload.
pub const PAYLOAD: usize = 64;

/// The serving workload's operation mix: YCSB-A (the mix Figures 9–11
/// report) over the records of [`ServiceSpec::default()`].
pub fn workload() -> WorkloadSpec {
    WorkloadSpec::ycsb_a(ServiceSpec::default().records, PAYLOAD)
}

/// A fresh request stream of the serving workload.
pub fn request_factory() -> RequestFactory {
    RequestFactory::new(workload(), PAYLOAD)
}

/// Builds the serving transport for `backend` with `lanes` server
/// threads, each pinned to its own simulated core, serving
/// [`ServiceSpec::default()`].
pub fn build_backend(backend: &Backend, lanes: usize) -> Box<dyn Transport> {
    build_backend_with_spec(&ServiceSpec::default(), backend, lanes)
}

/// Builds the serving transport for `backend` from an explicit service
/// spec — the path the serving-graph nodes use, where each node carries
/// its own per-request work.
pub fn build_backend_with_spec(
    spec: &ServiceSpec,
    backend: &Backend,
    lanes: usize,
) -> Box<dyn Transport> {
    match backend {
        Backend::SkyBridge => Box::new(SkyBridgeTransport::new(lanes, spec)),
        Backend::Trap(p) => Box::new(TrapIpcTransport::new(p.clone(), lanes, spec)),
        Backend::Mpk => Box::new(MpkTransport::new(lanes, spec)),
    }
}

/// One open-loop run over `engine`: through rings and [`RingRuntime`]
/// when `ring` gives a geometry, else through [`ServerRuntime`]. Returns
/// what `read` makes of the stats and the tenant fabric, and the engine.
pub fn serve_open_loop<R>(
    mut engine: Box<dyn Transport>,
    ring: Option<RingConfig>,
    runtime: RuntimeConfig,
    arrivals: impl IntoIterator<Item = u64>,
    factory: &mut RequestFactory,
    read: impl FnOnce(RunStats, &TenantFabric) -> R,
) -> (R, Box<dyn Transport>) {
    let Some(geometry) = ring else {
        let mut rt = ServerRuntime::new(engine.as_mut(), runtime);
        let out = read(rt.run_open_loop(arrivals, factory), rt.fabric());
        return (out, engine);
    };
    let mut rings = RingTransport::new(engine, geometry);
    let mut rt = RingRuntime::new(&mut rings, runtime);
    let out = read(rt.run_open_loop(arrivals, factory), rt.fabric());
    (out, rings.into_inner())
}

/// One open-loop serving run of the serving workload: `requests`
/// Poisson arrivals at a mean gap of `mean_inter_arrival` cycles against
/// `lanes` server threads, through the rings when `ring` gives a
/// geometry.
pub fn run_open_loop(
    backend: &Backend,
    lanes: usize,
    runtime: RuntimeConfig,
    ring: Option<RingConfig>,
    mean_inter_arrival: f64,
    requests: u64,
    seed: u64,
) -> RunStats {
    let engine = build_backend(backend, lanes);
    let arrivals = PoissonArrivals::new(mean_inter_arrival, seed).take(requests as usize);
    serve_open_loop(
        engine,
        ring,
        runtime,
        arrivals,
        &mut request_factory(),
        |s, _| s,
    )
    .0
}

/// What [`calibrate`] measured: `cycles` over `calls` direct calls.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Calls measured.
    pub calls: u64,
    /// Simulated cycles they took, end to end.
    pub cycles: Cycles,
}

impl Calibration {
    /// Mean cycles per call — the service rate the sweeps scale their
    /// arrival rates against.
    pub fn mean(&self) -> f64 {
        self.cycles as f64 / self.calls as f64
    }

    /// Cycles per call, rounded up — the non-preemptive service quantum
    /// a tenant-isolation bound allows for.
    pub fn quantum(&self) -> Cycles {
        self.cycles.div_ceil(self.calls)
    }
}

/// Times a fresh one-lane server of `backend` on the serving workload:
/// `warm` direct calls (past the KV store's growth phase), then `n`
/// more, measured.
pub fn calibrate(backend: &Backend, warm: u64, n: u64) -> Calibration {
    let mut t = build_backend(backend, 1);
    let mut f = request_factory();
    let mut drive = |calls: u64| {
        for _ in 0..calls {
            let r = f.make(t.now(0), None);
            t.call(0, &r).expect("calibration call");
        }
        t.now(0)
    };
    let t0 = drive(warm);
    Calibration {
        calls: n,
        cycles: drive(n) - t0,
    }
}

#[cfg(test)]
mod tests {
    use sb_runtime::AdmissionPolicy;

    use super::*;
    use crate::scenarios::throughput;

    fn cfg() -> RuntimeConfig {
        RuntimeConfig {
            queue_capacity: 16,
            policy: AdmissionPolicy::Shed,
            queue_deadline: None,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn kv_open_loop_completes_under_light_load() {
        for backend in [
            Backend::SkyBridge,
            Backend::Trap(Personality::sel4()),
            Backend::Mpk,
        ] {
            // ~17 req/Mcycle: far below capacity.
            let s = run_open_loop(&backend, 2, cfg(), None, 60_000.0, 120, 7);
            assert_eq!(s.completed, 120, "{}: all served", backend.label());
            assert_eq!(s.shed(), 0);
            assert!(s.p99() > 0);
            assert!(throughput(s.completed, s.window()) > 0.0);
            assert!(s.bytes_copied > 0, "the copy meter must see the encodes");
        }
    }

    #[test]
    fn ring_open_loop_completes_under_light_load() {
        for backend in Backend::all() {
            let ring = Some(RingConfig::default());
            let s = run_open_loop(&backend, 2, cfg(), ring, 60_000.0, 120, 7);
            assert_eq!(s.completed, 120, "{}: all served", backend.label());
            assert_eq!(s.shed(), 0);
            assert!(s.p99() > 0);
            assert!(s.bytes_copied > 0);
        }
    }

    /// The sweeps' mean and the tenant quantum read one measurement.
    #[test]
    fn a_calibration_rounds_its_quantum_up_from_its_mean() {
        let c = calibrate(&Backend::SkyBridge, 64, 100);
        assert_eq!(c.calls, 100);
        assert!(c.mean() > 0.0);
        assert_eq!(c.quantum(), c.mean().ceil() as Cycles);
    }
}
