//! `serve_ring`: open-loop Poisson load through `RingRuntime` +
//! `RingTransport` + the tenant fabric over a constant-service
//! synthetic transport — nothing is simulated underneath, so the
//! dispatcher, rings, fabric, load generation and stats are the host
//! time.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sb_runtime::{
    AdmissionPolicy, FixedServiceTransport, PoissonArrivals, RateLimit, RequestFactory, RingConfig,
    RingRuntime, RingTransport, RuntimeConfig, TenantRegistry, TenantSpec,
};
use sb_transport::Transport;
use sb_ycsb::WorkloadSpec;

use super::{digest_stats, sim_from_stats, Check, Prepared, Segment, Size};
use crate::host::{ChunkClock, Digest};
use crate::timed::{Tap, Timed, Trace};

/// Serving lanes.
pub const LANES: usize = 4;
/// Constant service time per request, in cycles.
pub const SERVICE: u64 = 1_000;
/// Mean inter-arrival gap, in cycles: ρ = 0.8 of `LANES` lanes at
/// `SERVICE` cycles. A fixed absolute number — never re-derived from
/// the code under test, so a slower dispatcher cannot quietly lower
/// its own load.
pub const MEAN_GAP: f64 = 312.5;
/// Zipf-skewed tenants sharing the server.
pub const TENANTS: u16 = 8;
/// The tenant held to a token-bucket contract.
pub const LIMITED_TENANT: u16 = 3;
/// Requests run through the same runtime before the measured run.
const WARMUP: usize = 20_000;

/// The tenant contracts: DRR weights 4/2/1…, every tenant blocking at
/// its bound (an open-loop generator cannot be pushed back on, so a
/// blocked arrival pumps the lane — no request is ever refused), and
/// one mid-rank tenant behind a token bucket generous enough that its
/// gate accounting runs on every arrival without shedding.
pub fn registry() -> TenantRegistry {
    let spec = |weight| TenantSpec {
        weight,
        queue_capacity: 64,
        policy: AdmissionPolicy::Block,
        rate: None,
        slo: None,
    };
    TenantRegistry::new(spec(1))
        .with(0, spec(4))
        .with(1, spec(2))
        .with(
            LIMITED_TENANT,
            TenantSpec {
                rate: Some(RateLimit {
                    per_mcycle: 2.0 * 1e6 / MEAN_GAP,
                    burst: 4096.0,
                }),
                ..spec(1)
            },
        )
}

fn factory(seed: u64) -> RequestFactory {
    RequestFactory::with_zipf_tenants(
        WorkloadSpec {
            seed,
            ..WorkloadSpec::ycsb_a(10_000, 64)
        },
        64,
        TENANTS,
        seed,
    )
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        tenants: Some(registry()),
        ..RuntimeConfig::default()
    }
}

struct ServeRing<T: Transport> {
    ring: RingTransport<T>,
    seed: u64,
    trace: Option<Trace>,
}

/// Builds transport, rings and fabric and runs a short warm-up stream.
pub fn setup(seed: u64, trace: Option<&Trace>) -> Box<dyn Prepared> {
    fn warmed<T: Transport + 'static>(
        inner: T,
        seed: u64,
        trace: Option<&Trace>,
    ) -> Box<dyn Prepared> {
        let mut ring = RingTransport::new(inner, RingConfig::default());
        let warm = RingRuntime::new(&mut ring, config()).run_open_loop(
            PoissonArrivals::new(MEAN_GAP, seed ^ 0x5741_524d).take(WARMUP),
            &mut factory(seed ^ 0x5741_524d),
        );
        assert_eq!(warm.completed, WARMUP as u64, "warm-up must not shed");
        Box::new(ServeRing {
            ring,
            seed,
            trace: trace.cloned(),
        })
    }
    let inner = FixedServiceTransport::new(LANES, SERVICE);
    match trace {
        None => warmed(inner, seed, None),
        Some(tr) => warmed(
            Timed::new(inner, tr, "transport.call_batch", "sb-transport"),
            seed,
            trace,
        ),
    }
}

impl<T: Transport> Prepared for ServeRing<T> {
    fn run(self: Box<Self>, size: Size) -> Segment {
        let ServeRing {
            mut ring,
            seed,
            trace,
        } = *self;
        let clock = Rc::new(RefCell::new(ChunkClock::new(trace.as_ref())));
        let arrivals = Tap::new(
            PoissonArrivals::new(MEAN_GAP, seed).take(size.ops as usize),
            size.chunk,
            clock.clone(),
            trace.as_ref(),
        );
        let mut f = factory(seed);
        let mut rt = RingRuntime::new(&mut ring, config());
        if let Some(tr) = &trace {
            tr.start();
            tr.open(tr.name("runtime.run", "sb-runtime"), 0);
        }
        let run = Instant::now();
        let stats = rt.run_open_loop(arrivals, &mut f);
        let wall_ns = run.elapsed().as_nanos() as u64;
        if let Some(tr) = &trace {
            tr.close(stats.window());
            tr.stop();
        }

        let outcomes = stats.completed + stats.shed() + stats.timed_out + stats.failed;
        let checks = vec![
            Check::eq("offered == requested", stats.offered, size.ops),
            Check::eq(
                "offered == completed + shed + timed_out + failed",
                stats.offered,
                outcomes,
            ),
            Check::new(
                "per-tenant ledgers balance and sum to the global one",
                stats.tenants_conserved(),
                format!("{} tenants", stats.tenants.len()),
            ),
            Check::new(
                "the rate-limited tenant's gate saw traffic",
                stats.tenant(LIMITED_TENANT).is_some_and(|t| t.offered > 0),
                format!("tenant {LIMITED_TENANT}"),
            ),
            Check::eq("every request completed", stats.completed, stats.offered),
        ];

        let mut digest = Digest::default();
        digest_stats(&mut digest, &stats);
        // The generated inputs: the arrival process and the request
        // stream are pure functions of the seed.
        let mut input_digest = Digest::default();
        let mut g = factory(seed);
        for t in PoissonArrivals::new(MEAN_GAP, seed).take(size.ops.min(4096) as usize) {
            let r = g.make(t, None);
            input_digest.word(t ^ r.key.rotate_left(32) ^ ((r.tenant as u64) << 48));
        }

        let mut layer = Vec::new();
        if let Some(tr) = &trace {
            let ops = size.ops as f64;
            layer.push((
                "runtime.self.host_ns",
                tr.get("runtime.run").self_ns as f64 / ops,
            ));
            layer.push((
                "transport.call_self.host_ns",
                tr.get("transport.call_batch").self_ns as f64 / ops,
            ));
        }
        layer.extend(super::runtime_layer(&stats));
        let ChunkClock { ns, unit_ns, .. } = Rc::try_unwrap(clock)
            .ok()
            .expect("the run dropped its tap")
            .into_inner();

        Segment {
            attempted: stats.offered,
            failed: stats.offered - stats.completed,
            chunk_ns: ns,
            unit_ns,
            wall_ns,
            sim: sim_from_stats(&stats),
            digest,
            input_digest,
            checks,
            layer,
        }
    }
}
