//! Runtime-backed serving mode for the evaluation scenarios.
//!
//! [`scenarios::kv`](crate::scenarios::kv) and
//! [`scenarios::sqlite`](crate::scenarios::sqlite) drive one client in a
//! closed lock-step loop — right for latency figures, blind to queueing.
//! This module runs the same two application shapes *as services* on the
//! `sb-runtime` dispatcher: N server threads pinned to simulated cores,
//! a bounded lane queue with admission control, and an open-loop
//! Poisson (or closed-loop) client population, so saturation, shedding,
//! and tail latency become measurable per IPC backend.

use sb_microkernel::Personality;
use sb_runtime::{
    MpkTransport, PoissonArrivals, RequestFactory, RingConfig, RingRuntime, RingTransport,
    RunStats, RuntimeConfig, ServerRuntime, ServiceSpec, SkyBridgeTransport, TenantFabric,
    Transport, TrapIpcTransport,
};
use sb_ycsb::WorkloadSpec;

use crate::scenarios::cycles_to_seconds;

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

/// Which application the service work models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingScenario {
    /// The KV-store server of Figure 1: light per-op work, small records.
    Kv,
    /// The minidb/xv6fs stack of §6.5: SQL parsing, B-tree probing and
    /// file-system block handling — an order of magnitude more compute
    /// and a much larger handler footprint per operation.
    Minidb,
}

impl ServingScenario {
    /// The per-request service work of this scenario.
    pub fn service_spec(self) -> ServiceSpec {
        match self {
            ServingScenario::Kv => ServiceSpec {
                records: 10_000,
                cpu: 180,
                footprint: 2048,
                timeout: None,
            },
            ServingScenario::Minidb => ServiceSpec {
                records: 10_000,
                cpu: 2_400,
                footprint: 8 * 1024,
                timeout: None,
            },
        }
    }

    /// The operation mix (YCSB-A, the workload Figures 9–11 report).
    pub fn workload(self) -> WorkloadSpec {
        let spec = self.service_spec();
        WorkloadSpec::ycsb_a(spec.records, self.payload())
    }

    /// Wire bytes per request.
    pub fn payload(self) -> usize {
        match self {
            ServingScenario::Kv => 64,
            ServingScenario::Minidb => 256,
        }
    }
}

/// Builds the serving transport for `backend` with `lanes` server
/// threads, each pinned to its own simulated core.
pub fn build_backend(
    scenario: ServingScenario,
    backend: &Backend,
    lanes: usize,
) -> Box<dyn Transport> {
    build_backend_with_spec(&scenario.service_spec(), backend, lanes)
}

/// Builds the serving transport for `backend` from an explicit service
/// spec — the path the serving-graph nodes use, where each node carries
/// its own per-request work rather than a [`ServingScenario`] preset.
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

/// Builds the serving transport for `backend` behind submission and
/// completion rings — the asynchronous doorbell mode. SkyBridge drains
/// each batch through one VMFUNC round trip
/// ([`Transport::call_batch`]); the trap personalities keep their
/// per-call crossings, so the sweep isolates exactly what batching the
/// boundary buys.
pub fn build_ring_backend(
    scenario: ServingScenario,
    backend: &Backend,
    lanes: usize,
    ring: RingConfig,
) -> RingTransport<Box<dyn Transport>> {
    RingTransport::new(build_backend(scenario, backend, lanes), ring)
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

/// One open-loop serving run in ring mode: the same arrival stream as
/// [`run_open_loop`], dispatched through [`RingRuntime`]'s adaptive
/// doorbell instead of the direct per-call queue.
#[allow(clippy::too_many_arguments)]
pub fn run_ring_open_loop(
    scenario: ServingScenario,
    backend: &Backend,
    lanes: usize,
    runtime: RuntimeConfig,
    ring: RingConfig,
    mean_inter_arrival: f64,
    requests: u64,
    seed: u64,
) -> RunStats {
    let engine = build_backend(scenario, backend, lanes);
    let mut factory = RequestFactory::new(scenario.workload(), scenario.payload());
    let arrivals = PoissonArrivals::new(mean_inter_arrival, seed).take(requests as usize);
    let ring = Some(ring);
    serve_open_loop(engine, ring, runtime, arrivals, &mut factory, |s, _| s).0
}

/// One open-loop serving run: `requests` Poisson arrivals at a mean gap
/// of `mean_inter_arrival` cycles against `lanes` server threads.
pub fn run_open_loop(
    scenario: ServingScenario,
    backend: &Backend,
    lanes: usize,
    runtime: RuntimeConfig,
    mean_inter_arrival: f64,
    requests: u64,
    seed: u64,
) -> RunStats {
    let engine = build_backend(scenario, backend, lanes);
    let mut factory = RequestFactory::new(scenario.workload(), scenario.payload());
    let arrivals = PoissonArrivals::new(mean_inter_arrival, seed).take(requests as usize);
    serve_open_loop(engine, None, runtime, arrivals, &mut factory, |s, _| s).0
}

/// One closed-loop serving run: `clients` issuers, one in-flight request
/// each, `ops_per_client` operations, `think` cycles between completion
/// and reissue.
pub fn run_closed_loop(
    scenario: ServingScenario,
    backend: &Backend,
    lanes: usize,
    runtime: RuntimeConfig,
    clients: usize,
    ops_per_client: u64,
    think: u64,
) -> RunStats {
    let mut transport = build_backend(scenario, backend, lanes);
    let mut factory = RequestFactory::new(scenario.workload(), scenario.payload());
    ServerRuntime::new(transport.as_mut(), runtime).run_closed_loop(
        clients,
        ops_per_client,
        think,
        &mut factory,
    )
}

/// Completions per wall-clock second on the modeled 4 GHz part.
pub fn ops_per_sec(stats: &RunStats) -> f64 {
    let secs = cycles_to_seconds(stats.window());
    if secs == 0.0 {
        return 0.0;
    }
    stats.completed as f64 / secs
}

#[cfg(test)]
mod tests {
    use sb_runtime::AdmissionPolicy;

    use super::*;

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
            let s = run_open_loop(
                ServingScenario::Kv,
                &backend,
                2,
                cfg(),
                60_000.0, // ~17 req/Mcycle: far below capacity.
                120,
                7,
            );
            assert_eq!(s.completed, 120, "{}: all served", backend.label());
            assert_eq!(s.shed(), 0);
            assert!(s.p99() > 0);
            assert!(ops_per_sec(&s) > 0.0);
            assert!(s.bytes_copied > 0, "the copy meter must see the encodes");
        }
    }

    #[test]
    fn ring_open_loop_completes_under_light_load() {
        for backend in Backend::all() {
            let s = run_ring_open_loop(
                ServingScenario::Kv,
                &backend,
                2,
                cfg(),
                RingConfig::default(),
                60_000.0,
                120,
                7,
            );
            assert_eq!(s.completed, 120, "{}: all served", backend.label());
            assert_eq!(s.shed(), 0);
            assert!(s.p99() > 0);
            assert!(s.bytes_copied > 0);
        }
    }

    #[test]
    fn minidb_costs_more_per_op_than_kv() {
        let t = Backend::SkyBridge;
        let kv = run_open_loop(ServingScenario::Kv, &t, 1, cfg(), 60_000.0, 64, 7);
        let db = run_open_loop(ServingScenario::Minidb, &t, 1, cfg(), 60_000.0, 64, 7);
        assert!(db.p50() > kv.p50(), "minidb ops are heavier");
    }

    #[test]
    fn closed_loop_serving_conserves_requests() {
        let s = run_closed_loop(
            ServingScenario::Kv,
            &Backend::Trap(Personality::zircon()),
            2,
            cfg(),
            4,
            16,
            0,
        );
        assert_eq!(s.offered, 64);
        assert_eq!(s.offered, s.completed + s.shed() + s.timed_out + s.failed);
    }
}
