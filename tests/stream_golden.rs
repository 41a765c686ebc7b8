//! Golden request streams.
//!
//! Every workload the benchmark and the scenarios run draws its keys,
//! operations and tenants from `sb-ycsb`'s scrambled Zipfian and its
//! arrivals from `PoissonArrivals`. This pins those streams: for each
//! factory configuration in use it folds a million requests' (key,
//! write, tenant, arrival) into one digest. The constants were captured
//! on the commit before the Zipfian's rank stopped calling libm's `pow`
//! per draw; a diff here means a generated stream moved, and every
//! digest and simulated figure downstream of it moved too.

use sb_runtime::{PoissonArrivals, RequestFactory, TenantId};
use sb_ycsb::{zipf::fnv_hash, OpKind, WorkloadSpec};

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

/// Order-sensitive fold of a `u64` stream.
fn digest(mut factory: RequestFactory) -> u64 {
    let mut d = 0u64;
    let mut put = |v: u64| d = ((d ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15)).rotate_left(29);
    for t in PoissonArrivals::new(MEAN_GAP, SEED).take(DRAWS) {
        let r = factory.make(t, None);
        put(r.key);
        put(r.write as u64);
        put(r.tenant as u64);
        put(r.arrival);
    }
    d
}

#[test]
fn serve_ring_stream_is_pinned() {
    let f = RequestFactory::with_zipf_tenants(
        seeded(WorkloadSpec::ycsb_a(RECORDS, 64)),
        64,
        TENANTS,
        SEED,
    );
    assert_eq!(digest(f), 0x27f9_dbe5_9714_6580);
}

#[test]
fn ycsb_a_stream_is_pinned() {
    let f = RequestFactory::new(seeded(WorkloadSpec::ycsb_a(RECORDS, 64)), 64);
    assert_eq!(digest(f), 0x02d8_a915_0c15_642a);
}

#[test]
fn ycsb_c_stream_is_pinned() {
    let f = RequestFactory::new(seeded(WorkloadSpec::ycsb_c(RECORDS, 64)), 64);
    assert_eq!(digest(f), 0x34c0_702b_2a87_81e2);
}

#[test]
fn graph_read_write_stream_is_pinned() {
    let spec = WorkloadSpec {
        mix: vec![(OpKind::Read, 40), (OpKind::Update, 60)],
        ..WorkloadSpec::ycsb_a(GRAPH_RECORDS, 48)
    };
    let f = RequestFactory::new(seeded(spec), 48);
    assert_eq!(digest(f), 0xf67a_56a8_fea3_583e);
}

#[test]
fn graph_read_only_stream_is_pinned() {
    let f = RequestFactory::new(seeded(WorkloadSpec::ycsb_c(GRAPH_RECORDS, 48)), 48);
    assert_eq!(digest(f), 0xb0d5_068c_6f3c_00f3);
}

/// An irregular interleave of five tenants, a few thousand requests
/// short of [`DRAWS`] so the digest also covers the exhausted schedule's
/// fall-back to tenant 0. The two schedule pins below were captured on
/// the commit before the factory drew its requests a block at a time.
fn schedule() -> Vec<TenantId> {
    (0..DRAWS as u64 - 4_321)
        .map(|i| (fnv_hash(i) % 5) as TenantId)
        .collect()
}

#[test]
fn tenant_schedule_stream_is_pinned() {
    let spec = seeded(WorkloadSpec::ycsb_a(RECORDS, 64));
    let f = RequestFactory::with_tenant_schedule(spec, 64, schedule());
    assert_eq!(digest(f), 0x149b_e1d5_7db5_0439);
}

#[test]
fn per_tenant_streams_are_pinned() {
    let spec = seeded(WorkloadSpec::ycsb_a(RECORDS, 64));
    let f = RequestFactory::with_per_tenant_streams(spec, 64, schedule());
    assert_eq!(digest(f), 0x532c_ac51_0188_4e80);
}
