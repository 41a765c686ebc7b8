//! The ring serving path's heap behaviour, counted rather than claimed.
//!
//! A counting `#[global_allocator]` (per-thread counters, so the test
//! harness's other threads cannot leak into a reading) measures two
//! things: that a warmed-up `RingRuntime` over `RingTransport` serves
//! its steady state without allocating per request, and that the dense
//! per-tenant state costs memory in proportion to the tenants a run
//! actually saw — not to the largest tenant id anyone sent. The same
//! allocator holds what the sentinel's SLO tracker may cost per
//! completion, as counts rather than nanoseconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sb_runtime::{
    AdmissionPolicy, FixedServiceTransport, PoissonArrivals, RateLimit, RequestFactory, RingConfig,
    RingRuntime, RingTransport, RunStats, RuntimeConfig, ServerRuntime, TenantId, TenantRegistry,
    TenantSpec,
};
use sb_sentinel::{SloHandle, SloSpec};
use sb_ycsb::WorkloadSpec;

thread_local! {
    /// `(allocations, bytes)` requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is a thread-local counter bump, which itself never allocates
// (`const`-initialised `Cell`, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn note(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// `(allocations, bytes)` this thread requested while `f` ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNTS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// The benchmark's `serve_ring` shape: four lanes at a constant 1 000
/// cycles, ρ = 0.8, eight Zipf tenants with DRR weights 4/2/1…, every
/// tenant blocking, one behind a generous token bucket.
const LANES: usize = 4;
const SERVICE: u64 = 1_000;
const MEAN_GAP: f64 = 312.5;

fn serve_ring_registry() -> TenantRegistry {
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
            3,
            TenantSpec {
                rate: Some(RateLimit {
                    per_mcycle: 2.0 * 1e6 / MEAN_GAP,
                    burst: 4096.0,
                }),
                ..spec(1)
            },
        )
}

/// Allocations made by one `requests`-long run on a warmed-up ring.
fn allocations_of_a_run(requests: usize) -> u64 {
    let config = || RuntimeConfig {
        tenants: Some(serve_ring_registry()),
        ..RuntimeConfig::default()
    };
    let factory = |seed| {
        RequestFactory::with_zipf_tenants(
            WorkloadSpec {
                seed,
                ..WorkloadSpec::ycsb_a(10_000, 64)
            },
            64,
            8,
            seed,
        )
    };
    let mut ring = RingTransport::new(
        FixedServiceTransport::new(LANES, SERVICE),
        RingConfig::default(),
    );
    let warm = RingRuntime::new(&mut ring, config()).run_open_loop(
        PoissonArrivals::new(MEAN_GAP, 7).take(20_000),
        &mut factory(7),
    );
    assert_eq!(warm.completed, 20_000);
    let mut f = factory(42);
    let (stats, allocations, _) = counted(|| {
        RingRuntime::new(&mut ring, config())
            .run_open_loop(PoissonArrivals::new(MEAN_GAP, 42).take(requests), &mut f)
    });
    assert_eq!(stats.completed, requests as u64);
    allocations
}

/// Doubling the run must not double the allocations: what is left is
/// set-up (fabric, rows, histograms — identical in both runs) plus the
/// `LatencyTrack` exact-prefix doublings, one more per track whose
/// varint bytes cross a power of two between 20 000 and 40 000 samples
/// (the global track and at most each of the eight tenant tracks).
#[test]
fn steady_state_serving_allocates_nothing_per_request() {
    let short = allocations_of_a_run(20_000);
    let long = allocations_of_a_run(40_000);
    println!("allocations: 20 000 requests {short}, 40 000 requests {long}");
    assert!(
        long.abs_diff(short) <= 16,
        "20 000 more requests cost {} more allocations ({short} -> {long})",
        long.abs_diff(short)
    );
}

fn shed_spec() -> TenantSpec {
    TenantSpec {
        queue_capacity: 8,
        ..TenantSpec::default()
    }
}

/// One run over `schedule`'s tenants through both disciplines; returns
/// the two `RunStats` and the bytes the pair of runs allocated.
fn run_schedule(schedule: &[TenantId]) -> (RunStats, RunStats, u64) {
    let config = || RuntimeConfig {
        queue_capacity: 8,
        tenants: Some(TenantRegistry::new(shed_spec())),
        ..RuntimeConfig::default()
    };
    let factory = || {
        RequestFactory::with_tenant_schedule(WorkloadSpec::ycsb_a(1_000, 64), 64, schedule.to_vec())
    };
    let arrivals = || (0..schedule.len() as u64).map(|i| i * 150);
    let ((ring_stats, direct_stats), _, bytes) = counted(|| {
        let mut ring = RingTransport::new(
            FixedServiceTransport::new(2, 200),
            RingConfig {
                capacity: 8,
                batch_budget: 4,
                slot_bytes: 4096,
            },
        );
        let a = RingRuntime::new(&mut ring, config()).run_open_loop(arrivals(), &mut factory());
        let mut direct = FixedServiceTransport::new(2, 200);
        let b = ServerRuntime::new(&mut direct, config()).run_open_loop(arrivals(), &mut factory());
        (a, b)
    });
    (ring_stats, direct_stats, bytes)
}

fn assert_rows(stats: &RunStats, schedule: &[TenantId]) {
    let mut want: Vec<TenantId> = schedule.to_vec();
    want.sort_unstable();
    want.dedup();
    let got: Vec<TenantId> = stats.tenants.keys().copied().collect();
    assert_eq!(got, want, "exactly the tenants seen, in id order");
    assert!(stats.tenants_conserved());
    assert_eq!(stats.offered, schedule.len() as u64);
    assert!(stats.conserved(), "{stats:?}");
    for (id, row) in &stats.tenants {
        let offered = schedule.iter().filter(|t| *t == id).count() as u64;
        assert_eq!(row.offered, offered, "tenant {id}");
    }
}

/// Tenants 0 and 65 535 are two tenants, not 65 536: the run reports
/// exactly those two rows and allocates what a run over tenants 0 and 1
/// allocates, give or take one page of the id index.
#[test]
fn far_apart_tenant_ids_cost_what_adjacent_ones_do() {
    let near: Vec<TenantId> = (0..400).map(|i| (i % 2) as TenantId).collect();
    let far: Vec<TenantId> = near.iter().map(|&t| t * TenantId::MAX).collect();
    let (ring_near, direct_near, bytes_near) = run_schedule(&near);
    let (ring_far, direct_far, bytes_far) = run_schedule(&far);
    for (stats, schedule) in [
        (&ring_near, &near),
        (&direct_near, &near),
        (&ring_far, &far),
        (&direct_far, &far),
    ] {
        assert_rows(stats, schedule);
    }
    println!("bytes allocated: tenants {{0, 1}} {bytes_near}, tenants {{0, 65535}} {bytes_far}");
    assert!(
        bytes_far.abs_diff(bytes_near) <= 16 * 1024,
        "ids 0/65535 allocated {bytes_far} B, ids 0/1 allocated {bytes_near} B"
    );
}

/// 4 096 distinct tenant ids spread over the whole id space: every one
/// gets its row, in id order, and the bytes allocated per tenant stay
/// what one tenant costs (its fabric lane, its stats row and that row's
/// 8 KiB latency histogram) — nothing scales with the id.
#[test]
fn four_thousand_tenants_cost_memory_in_proportion() {
    let ids: Vec<TenantId> = (0..4096u32)
        .map(|i| (i * 16 + i % 16) as TenantId)
        .collect();
    let schedule: Vec<TenantId> = ids.iter().chain(&ids).copied().collect();
    let (ring_stats, direct_stats, bytes) = run_schedule(&schedule);
    assert_rows(&ring_stats, &schedule);
    assert_rows(&direct_stats, &schedule);
    let per_tenant = bytes / (2 * ids.len() as u64);
    println!("bytes allocated per tenant per run: {per_tenant}");
    assert!(per_tenant <= 24 * 1024, "{per_tenant} B per tenant per run");
}

/// The sentinel tax as the property it protects. `sb-bench --bin
/// sentinel` used to gate "SLO recording costs ≤ 5% host ns per call
/// over tracing alone"; what keeps that true is that a good completion
/// is two counter bumps and a histogram bucket: inside one bucket of
/// the slow window, good completions never run the burn rule's scan
/// over the buckets and never touch the heap. Bad records and bucket
/// boundaries do pay for an evaluation — one each.
#[test]
fn good_completions_inside_one_bucket_evaluate_nothing_and_allocate_nothing() {
    let spec = SloSpec::default();
    let slo = SloHandle::new(spec);
    slo.complete(0, 1); // Opens the bucket: one evaluation.
    assert_eq!(slo.evaluations(), 1);

    // A hundred cycles is far inside one bucket of any slow window.
    let completions = 10_000;
    let ((), allocations, _) = counted(|| {
        for i in 0..completions {
            slo.complete(i % 100, spec.latency_objective);
        }
    });
    assert_eq!(slo.evaluations(), 1, "good records inside one bucket");
    assert_eq!(allocations, 0, "recording a completion allocated");
    assert_eq!(slo.health().good, completions + 1);

    slo.complete(spec.slow_window, 1);
    assert_eq!(slo.evaluations(), 2, "a bucket boundary evaluates once");
    let ((), allocations, _) = counted(|| slo.error(spec.slow_window + 1));
    assert_eq!(slo.evaluations(), 3, "a bad record evaluates once");
    assert_eq!(allocations, 0, "evaluating the burn rule allocated");
}
