//! Golden request streams.
//!
//! Every workload the benchmark and the scenarios run draws its keys,
//! operations and tenants from `sb-ycsb`'s scrambled Zipfian and its
//! arrivals from `PoissonArrivals`. This pins those streams: for each
//! factory configuration in use it folds a million requests' (key,
//! write, tenant, arrival) into one digest, a row of
//! `results/pins/stream_golden.json` named after the configuration. The
//! rows were first captured before the Zipfian's rank stopped calling
//! libm's `pow` per draw; a moved row means a generated stream moved, and
//! every digest and simulated figure downstream of it moved too.

mod support;

use sb_runtime::{PoissonArrivals, RequestFactory, TenantId};
use sb_ycsb::{zipf::fnv_hash, OpKind, WorkloadSpec};
use support::{pins, Fold};

/// Requests folded per configuration.
const DRAWS: usize = 1_000_000;
/// The seed every configuration runs at (the benchmark's default).
const SEED: u64 = 42;
/// The records `serve_ring` and the `xcall_*` workloads draw over.
const RECORDS: u64 = 10_000;
/// The records the benchmark's graph workloads draw over.
const GRAPH_RECORDS: u64 = 4_096;
/// `serve_ring`'s mean inter-arrival gap and tenant count.
const MEAN_GAP: f64 = 312.5;
const TENANTS: u16 = 8;

fn seeded(spec: WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec { seed: SEED, ..spec }
}

/// Pins the fold of `factory`'s first [`DRAWS`] requests as `case`.
fn pin(case: &str, mut factory: RequestFactory) {
    let mut d = Fold::default();
    for t in PoissonArrivals::new(MEAN_GAP, SEED).take(DRAWS) {
        let r = factory.make(t, None);
        d.put(r.key);
        d.put(r.write as u64);
        d.put(r.tenant as u64);
        d.put(r.arrival);
    }
    pins::check(vec![(case.to_string(), d.0)]);
}

#[test]
fn serve_ring_stream_is_pinned() {
    let f = RequestFactory::with_zipf_tenants(
        seeded(WorkloadSpec::ycsb_a(RECORDS, 64)),
        64,
        TENANTS,
        SEED,
    );
    pin("serve_ring", f);
}

#[test]
fn ycsb_a_stream_is_pinned() {
    pin(
        "ycsb_a",
        RequestFactory::new(seeded(WorkloadSpec::ycsb_a(RECORDS, 64)), 64),
    );
}

#[test]
fn ycsb_c_stream_is_pinned() {
    pin(
        "ycsb_c",
        RequestFactory::new(seeded(WorkloadSpec::ycsb_c(RECORDS, 64)), 64),
    );
}

#[test]
fn graph_read_write_stream_is_pinned() {
    let spec = WorkloadSpec {
        mix: vec![(OpKind::Read, 40), (OpKind::Update, 60)],
        ..WorkloadSpec::ycsb_a(GRAPH_RECORDS, 48)
    };
    pin("graph_read_write", RequestFactory::new(seeded(spec), 48));
}

#[test]
fn graph_read_only_stream_is_pinned() {
    pin(
        "graph_read_only",
        RequestFactory::new(seeded(WorkloadSpec::ycsb_c(GRAPH_RECORDS, 48)), 48),
    );
}

/// An irregular interleave of five tenants, a few thousand requests
/// short of [`DRAWS`] so the digest also covers the exhausted schedule's
/// fall-back to tenant 0. The two schedule rows were first captured
/// before the factory drew its requests a block at a time.
fn schedule() -> Vec<TenantId> {
    (0..DRAWS as u64 - 4_321)
        .map(|i| (fnv_hash(i) % 5) as TenantId)
        .collect()
}

#[test]
fn tenant_schedule_stream_is_pinned() {
    let spec = seeded(WorkloadSpec::ycsb_a(RECORDS, 64));
    pin(
        "tenant_schedule",
        RequestFactory::with_tenant_schedule(spec, 64, schedule()),
    );
}

#[test]
fn per_tenant_streams_are_pinned() {
    let spec = seeded(WorkloadSpec::ycsb_a(RECORDS, 64));
    pin(
        "per_tenant_streams",
        RequestFactory::with_per_tenant_streams(spec, 64, schedule()),
    );
}
