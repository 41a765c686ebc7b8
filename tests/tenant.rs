//! Tenant-fabric property battery: weighted fairness under arbitrary
//! interleavings, FIFO order inside every lane, and the per-tenant
//! exactly-once conservation ledger on real serving runs.
//!
//! The DRR scheduler's contract is distributional — over a saturated
//! horizon every backlogged tenant's service share converges to its
//! weight share — so the fairness checks are property tests over
//! arbitrary weight assignments and arrival interleavings, not
//! hand-picked examples.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sb_runtime::{
    AdmissionPolicy, PoissonArrivals, RequestFactory, RingConfig, RingRuntime, RingTransport,
    RuntimeConfig, ServerRuntime, TenantFabric, TenantId, TenantRegistry, TenantSpec,
};
use sb_transport::Request;
use skybridge_repro::scenarios::runtime::{
    build_backend, request_factory, workload, Backend, PAYLOAD,
};

fn req(id: u64, tenant: TenantId) -> Request {
    Request {
        id,
        arrival: 0,
        key: id % 100,
        write: false,
        payload: 32,
        client: None,
        tenant,
    }
}

fn spec(weight: u64, capacity: usize) -> TenantSpec {
    TenantSpec {
        weight,
        queue_capacity: capacity,
        policy: AdmissionPolicy::Shed,
        rate: None,
        slo: None,
    }
}

proptest! {
    /// Under saturation (every lane kept backlogged), each tenant's
    /// share of pops converges to its weight share, whatever the
    /// weights and however the refill interleaves the tenants.
    #[test]
    fn drr_service_tracks_weight_share_under_saturation(
        weights in proptest::collection::vec(1u64..=8, 2..7),
        seed in any::<u64>(),
    ) {
        let tenants: Vec<TenantId> = (0..weights.len() as u16).collect();
        let mut reg = TenantRegistry::new(spec(1, usize::MAX));
        for (t, &w) in tenants.iter().zip(&weights) {
            reg = reg.with(*t, spec(w, usize::MAX));
        }
        let mut fabric = TenantFabric::new(reg);

        // Prime every lane, then keep each backlogged: after every pop,
        // refill the popped tenant's lane in a seed-scrambled order so
        // arrival interleaving can't matter.
        let mut next_id = 0u64;
        let mut order: Vec<TenantId> = tenants.clone();
        let rot = (seed % order.len() as u64) as usize;
        order.rotate_left(rot);
        for _ in 0..4 {
            for &t in &order {
                fabric.push(req(next_id, t));
                next_id += 1;
            }
        }
        let rounds = 400 * weights.len() as u64;
        let mut served: BTreeMap<TenantId, u64> = BTreeMap::new();
        for _ in 0..rounds {
            let r = fabric.pop().expect("lanes stay backlogged");
            *served.entry(r.tenant).or_default() += 1;
            fabric.push(req(next_id, r.tenant));
            next_id += 1;
        }

        let total_weight: u64 = weights.iter().sum();
        for (t, &w) in tenants.iter().zip(&weights) {
            let got = *served.get(t).unwrap_or(&0) as f64 / rounds as f64;
            let want = w as f64 / total_weight as f64;
            prop_assert!(
                (got - want).abs() <= 0.05,
                "tenant {t} weight {w}: served share {got:.3} vs weight share {want:.3}"
            );
        }
    }

    /// Whatever the interleaving, each tenant's requests come back in
    /// the exact order they were pushed — DRR reorders across lanes,
    /// never within one.
    #[test]
    fn drr_preserves_fifo_within_every_tenant(
        schedule in proptest::collection::vec(0u16..5, 1..200),
    ) {
        let mut fabric = TenantFabric::new(TenantRegistry::new(spec(1, usize::MAX)));
        for (i, &t) in schedule.iter().enumerate() {
            fabric.push(req(i as u64, t));
        }
        let mut last_seen: BTreeMap<TenantId, u64> = BTreeMap::new();
        let mut popped = 0;
        while let Some(r) = fabric.pop() {
            popped += 1;
            if let Some(&prev) = last_seen.get(&r.tenant) {
                prop_assert!(prev < r.id, "tenant {} ids out of order", r.tenant);
            }
            last_seen.insert(r.tenant, r.id);
        }
        prop_assert_eq!(popped, schedule.len());
    }
}

/// The per-tenant conservation ledger on a real multi-tenant serving
/// run: every tenant's offered count decomposes exactly into
/// completed + shed + timed out + failed, and the per-tenant rows sum
/// back to the global counters — for both serving paths.
#[test]
fn per_tenant_ledgers_balance_on_real_runs() {
    let registry = TenantRegistry::new(spec(1, 4));
    let cfg = || RuntimeConfig {
        tenants: Some(registry.clone()),
        ..RuntimeConfig::default()
    };
    // Hot enough that some lanes shed, so the ledger's shed column is
    // exercised, not just completed.
    let arrivals: Vec<_> = PoissonArrivals::new(400.0, 7).take(3_000).collect();

    let mut factory = RequestFactory::with_zipf_tenants(workload(), PAYLOAD, 32, 7);
    let mut transport = build_backend(&Backend::SkyBridge, 2);
    let direct =
        ServerRuntime::new(transport.as_mut(), cfg()).run_open_loop(arrivals.clone(), &mut factory);
    assert!(
        direct.tenants_conserved(),
        "direct-mode ledgers: {direct:?}"
    );
    assert!(direct.shed() > 0, "the run must actually shed");
    assert!(direct.tenants.len() > 1, "the run must be multi-tenant");

    let mut factory = RequestFactory::with_zipf_tenants(workload(), PAYLOAD, 32, 7);
    let mut transport =
        RingTransport::new(build_backend(&Backend::SkyBridge, 2), RingConfig::default());
    let ring = RingRuntime::new(&mut transport, cfg()).run_open_loop(arrivals, &mut factory);
    assert!(ring.tenants_conserved(), "ring-mode ledgers: {ring:?}");
    assert!(ring.tenants.len() > 1, "the ring run must be multi-tenant");
}

/// A single-tenant registry run is indistinguishable from the historic
/// single-queue dispatcher: one lane, weight irrelevant, exact FIFO.
#[test]
fn single_tenant_config_matches_default_run() {
    let arrivals: Vec<_> = PoissonArrivals::new(2_000.0, 3).take(1_500).collect();

    let run = |tenants: Option<TenantRegistry>| {
        let mut factory = request_factory();
        let mut transport = build_backend(&Backend::SkyBridge, 2);
        ServerRuntime::new(
            transport.as_mut(),
            RuntimeConfig {
                tenants,
                ..RuntimeConfig::default()
            },
        )
        .run_open_loop(arrivals.clone(), &mut factory)
    };

    let implicit = run(None);
    let explicit = run(Some(TenantRegistry::single(
        RuntimeConfig::default().queue_capacity,
        RuntimeConfig::default().policy,
    )));
    assert_eq!(implicit.completed, explicit.completed);
    assert_eq!(implicit.shed(), explicit.shed());
    assert_eq!(implicit.p99(), explicit.p99());
    assert_eq!(implicit.end, explicit.end);
}
