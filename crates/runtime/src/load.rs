//! Load generation: YCSB-mix request factories, tenant assignment, and
//! the open-loop Poisson arrival process.
//!
//! Both draw ahead: a refill computes the next `BLOCK` requests or
//! arrivals in one loop, so one request's draw chains overlap the next
//! ones' instead of each waiting on its own (DESIGN.md §22).

use std::collections::{BTreeMap, VecDeque};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sb_sim::Cycles;
use sb_ycsb::{OpKind, ScrambledZipfian, Workload, WorkloadSpec};

use sb_transport::{Request, TenantId};

/// Requests (or arrivals) drawn per refill. Every stream behind a draw
/// has its own generator and none depends on service progress, so
/// drawing ahead changes no value.
const BLOCK: usize = 32;

/// How a [`RequestFactory`] stamps tenants onto requests.
#[derive(Debug)]
enum TenantSource {
    /// Every request bills to one tenant (the single-tenant default).
    Fixed(TenantId),
    /// Production-shaped skew: tenant drawn from a scrambled-Zipfian
    /// distribution over `n` tenants — a few tenants dominate, a long
    /// tail trickles, and the hot set is spread by the FNV scramble.
    Zipf {
        zipf: ScrambledZipfian,
        rng: SmallRng,
    },
    /// An explicit per-arrival schedule (front = next request). Lets a
    /// scenario interleave hand-built per-tenant arrival streams and
    /// know exactly which request belongs to whom; runs out back to
    /// tenant 0.
    Schedule(VecDeque<TenantId>),
}

/// Turns a YCSB operation stream into [`Request`]s with a fixed wire
/// payload.
#[derive(Debug)]
pub struct RequestFactory {
    workload: Workload,
    spec: WorkloadSpec,
    payload: usize,
    next_id: u64,
    tenants: TenantSource,
    /// When set, each tenant draws keys/ops from its own
    /// deterministically seeded workload stream instead of the shared
    /// one: tenant `t`'s nth request is the same bytes no matter how
    /// other tenants' arrivals interleave with it. The noisy-neighbor
    /// comparison depends on this — a victim's solo and contended runs
    /// must differ only in what else the server is doing.
    per_tenant: Option<BTreeMap<TenantId, Workload>>,
    /// The next requests' (key, write, tenant); `make` serves slot
    /// `next_id % BLOCK`.
    block: [(u64, bool, TenantId); BLOCK],
}

impl RequestFactory {
    /// A factory over `spec`'s key/op mix with `payload` wire bytes per
    /// request; everything bills to tenant 0.
    pub fn new(spec: WorkloadSpec, payload: usize) -> Self {
        RequestFactory {
            workload: Workload::new(spec.clone()),
            spec,
            payload,
            next_id: 0,
            tenants: TenantSource::Fixed(0),
            per_tenant: None,
            block: [(0, false, 0); BLOCK],
        }
    }

    /// A factory drawing tenants from a scrambled-Zipfian skew over
    /// `tenants` distinct tenants — the production shape, where a few
    /// tenants carry most of the traffic.
    pub fn with_zipf_tenants(spec: WorkloadSpec, payload: usize, tenants: u16, seed: u64) -> Self {
        assert!(tenants > 0, "at least one tenant");
        let mut f = RequestFactory::new(spec, payload);
        f.tenants = TenantSource::Zipf {
            zipf: ScrambledZipfian::new(tenants as u64),
            rng: SmallRng::seed_from_u64(seed ^ 0x7e4a_97a5_1d2b_91c3),
        };
        f
    }

    /// A factory following an explicit tenant schedule, one entry per
    /// request in order. The noisy-neighbor scenario builds per-tenant
    /// arrival streams, merges them, and hands the merged tenant order
    /// here so solo and contended runs see identical victim streams.
    pub fn with_tenant_schedule(
        spec: WorkloadSpec,
        payload: usize,
        schedule: Vec<TenantId>,
    ) -> Self {
        let mut f = RequestFactory::new(spec, payload);
        f.tenants = TenantSource::Schedule(schedule.into());
        f
    }

    /// Like [`RequestFactory::with_tenant_schedule`], but each tenant
    /// additionally draws its keys and operations from a private
    /// workload stream seeded by its tenant id. Tenant `t`'s nth
    /// request is byte-identical across runs regardless of how other
    /// tenants interleave — the property the noisy-neighbor isolation
    /// verdict rests on.
    pub fn with_per_tenant_streams(
        spec: WorkloadSpec,
        payload: usize,
        schedule: Vec<TenantId>,
    ) -> Self {
        let mut f = RequestFactory::with_tenant_schedule(spec, payload, schedule);
        f.per_tenant = Some(BTreeMap::new());
        f
    }

    /// Draws the next [`BLOCK`] requests, each the way `make` once drew
    /// one on demand: its tenant, then its operation from the shared
    /// stream or the tenant's own.
    fn refill(&mut self) {
        for at in 0..BLOCK {
            let tenant = match &mut self.tenants {
                TenantSource::Fixed(t) => *t,
                TenantSource::Zipf { zipf, rng } => zipf.next(rng) as TenantId,
                TenantSource::Schedule(q) => q.pop_front().unwrap_or(0),
            };
            let op = match &mut self.per_tenant {
                Some(streams) => streams
                    .entry(tenant)
                    .or_insert_with(|| {
                        let mut spec = self.spec.clone();
                        spec.seed ^= (tenant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        Workload::new(spec)
                    })
                    .next_op(),
                None => self.workload.next_op(),
            };
            let write = !matches!(op.kind, OpKind::Read | OpKind::Scan);
            self.block[at] = (op.key, write, tenant);
        }
    }

    /// The next request, stamped with `arrival` (and, for closed-loop
    /// runs, the issuing `client`).
    pub fn make(&mut self, arrival: Cycles, client: Option<usize>) -> Request {
        let at = (self.next_id % BLOCK as u64) as usize;
        if at == 0 {
            self.refill();
        }
        let (key, write, tenant) = self.block[at];
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            arrival,
            key,
            write,
            payload: self.payload,
            client,
            tenant,
        }
    }
}

/// An open-loop Poisson arrival process: inter-arrival gaps are
/// exponential with the given mean, independent of service progress.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: SmallRng,
    /// Mean inter-arrival gap in cycles.
    mean: f64,
    /// Accumulated arrival clock (f64 to avoid rounding drift).
    t: f64,
    /// The next arrivals; `next` serves slot `at`.
    block: [Cycles; BLOCK],
    at: usize,
}

impl PoissonArrivals {
    /// Arrivals at a mean gap of `mean_inter_arrival` cycles, i.e. an
    /// offered rate of `1e6 / mean_inter_arrival` requests per Mcycle.
    pub fn new(mean_inter_arrival: f64, seed: u64) -> Self {
        assert!(
            mean_inter_arrival > 0.0,
            "mean inter-arrival must be positive"
        );
        PoissonArrivals {
            rng: SmallRng::seed_from_u64(seed),
            mean: mean_inter_arrival,
            t: 0.0,
            block: [0; BLOCK],
            at: BLOCK,
        }
    }
}

impl Iterator for PoissonArrivals {
    type Item = Cycles;

    fn next(&mut self) -> Option<Cycles> {
        if self.at == BLOCK {
            // Inverse-CDF exponential draws; 1 - u avoids ln(0).
            for slot in &mut self.block {
                let u: f64 = self.rng.gen();
                self.t += -self.mean * (1.0 - u).ln();
                *slot = self.t as Cycles;
            }
            self.at = 0;
        }
        self.at += 1;
        Some(self.block[self.at - 1])
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn poisson_mean_gap_is_close() {
        let n = 20_000;
        let last = PoissonArrivals::new(500.0, 42).take(n).last().unwrap();
        let mean = last as f64 / n as f64;
        assert!(
            (420.0..580.0).contains(&mean),
            "mean gap {mean} far from 500"
        );
    }

    #[test]
    fn arrivals_are_monotone() {
        let times: Vec<Cycles> = PoissonArrivals::new(10.0, 7).take(1000).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn factory_respects_mix_and_payload() {
        let mut f = RequestFactory::new(WorkloadSpec::ycsb_c(100, 64), 64);
        for i in 0..50 {
            let r = f.make(i, None);
            assert_eq!(r.id, i);
            assert!(!r.write, "YCSB-C is read-only");
            assert!(r.key < 100);
            assert_eq!(r.payload, 64);
            assert_eq!(r.tenant, 0, "default factory bills tenant 0");
        }
        let mut f = RequestFactory::new(WorkloadSpec::ycsb_a(100, 64), 64);
        let writes = (0..200).filter(|&i| f.make(i, None).write).count();
        assert!((60..140).contains(&writes), "YCSB-A is ~50% update");
    }

    #[test]
    fn zipf_tenants_skew_and_stay_in_range() {
        let n_tenants = 64u16;
        let mut f =
            RequestFactory::with_zipf_tenants(WorkloadSpec::ycsb_c(100, 64), 64, n_tenants, 0x7e7a);
        let mut counts = vec![0u64; n_tenants as usize];
        for i in 0..20_000 {
            let t = f.make(i, None).tenant;
            counts[t as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(max > 20_000 / 64 * 4, "a hot tenant must dominate: {max}");
        assert!(nonzero > 16, "the tail must still appear: {nonzero}");
    }

    #[test]
    fn tenant_schedule_is_followed_exactly_then_defaults() {
        let sched = vec![3u16, 1, 4, 1, 5];
        let mut f =
            RequestFactory::with_tenant_schedule(WorkloadSpec::ycsb_c(100, 64), 64, sched.clone());
        let got: Vec<u16> = (0..7).map(|i| f.make(i, None).tenant).collect();
        assert_eq!(&got[..5], &sched[..]);
        assert_eq!(&got[5..], &[0, 0], "an exhausted schedule bills tenant 0");
    }

    #[test]
    fn per_tenant_streams_are_interleaving_invariant() {
        // Tenant 3's request stream must be byte-identical whether it
        // runs alone or interleaved with a storming tenant 9.
        let spec = WorkloadSpec::ycsb_a(1_000, 64);
        let solo: Vec<_> = {
            let mut f = RequestFactory::with_per_tenant_streams(spec.clone(), 64, vec![3; 20]);
            (0..20).map(|i| f.make(i, None)).collect()
        };
        let mixed_sched: Vec<u16> = (0..60).map(|i| if i % 3 == 0 { 3 } else { 9 }).collect();
        let mut f = RequestFactory::with_per_tenant_streams(spec, 64, mixed_sched);
        let mixed: Vec<_> = (0..60).map(|i| f.make(i, None)).collect();
        let t3: Vec<_> = mixed.iter().filter(|r| r.tenant == 3).collect();
        assert_eq!(t3.len(), 20);
        for (a, b) in solo.iter().zip(&t3) {
            assert_eq!((a.key, a.write, a.payload), (b.key, b.write, b.payload));
        }
    }

    /// Tenants the Zipf source and the schedules span.
    const TENANTS: u16 = 5;

    /// The four tenant sources, as [`one_at_a_time`] and [`factory`]
    /// number them.
    const SOURCES: [&str; 4] = ["fixed", "zipf", "schedule", "per-tenant streams"];

    /// `make` as it was before blocks: one request's tenant, then its
    /// operation from the shared stream or the tenant's private one,
    /// drawn when asked; (id, key, write, tenant) per request.
    fn one_at_a_time(
        source: usize,
        spec: &WorkloadSpec,
        seed: u64,
        schedule: &[TenantId],
        n: u64,
    ) -> Vec<(u64, u64, bool, TenantId)> {
        let mut shared = Workload::new(spec.clone());
        let mut private = BTreeMap::new();
        let zipf = ScrambledZipfian::new(TENANTS as u64);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e4a_97a5_1d2b_91c3);
        let mut scheduled = schedule.iter().copied();
        (0..n)
            .map(|id| {
                let tenant = match source {
                    0 => 0,
                    1 => zipf.next(&mut rng) as TenantId,
                    _ => scheduled.next().unwrap_or(0),
                };
                let op = if source == 3 {
                    let stream = private.entry(tenant).or_insert_with(|| {
                        let mut spec = spec.clone();
                        spec.seed ^= (tenant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        Workload::new(spec)
                    });
                    stream.next_op()
                } else {
                    shared.next_op()
                };
                let write = !matches!(op.kind, OpKind::Read | OpKind::Scan);
                (id, op.key, write, tenant)
            })
            .collect()
    }

    fn factory(
        source: usize,
        spec: WorkloadSpec,
        seed: u64,
        schedule: Vec<TenantId>,
    ) -> RequestFactory {
        match source {
            0 => RequestFactory::new(spec, 64),
            1 => RequestFactory::with_zipf_tenants(spec, 64, TENANTS, seed),
            2 => RequestFactory::with_tenant_schedule(spec, 64, schedule),
            _ => RequestFactory::with_per_tenant_streams(spec, 64, schedule),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn block_boundaries_are_invisible_to_make(
            source in 0..SOURCES.len(),
            seed in any::<u64>(),
            n in 0..3 * BLOCK as u64 + 2,
            schedule in proptest::collection::vec(0..TENANTS, 0..3 * BLOCK + 2),
        ) {
            let spec = WorkloadSpec { seed, ..WorkloadSpec::ycsb_a(1_000, 64) };
            let expected = one_at_a_time(source, &spec, seed, &schedule, n);
            let mut f = factory(source, spec, seed, schedule);
            let got: Vec<_> = (0..n)
                .map(|i| {
                    let r = f.make(i, None);
                    (r.id, r.key, r.write, r.tenant)
                })
                .collect();
            prop_assert_eq!(got, expected, "{} source, seed {}", SOURCES[source], seed);
        }

        #[test]
        fn block_boundaries_are_invisible_to_arrivals(
            eighths in 1u32..100_000,
            seed in any::<u64>(),
            n in 0..3 * BLOCK + 2,
        ) {
            let mean = eighths as f64 / 8.0;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = 0.0;
            let expected: Vec<Cycles> = (0..n)
                .map(|_| {
                    let u: f64 = rng.gen();
                    t += -mean * (1.0 - u).ln();
                    t as Cycles
                })
                .collect();
            let got: Vec<Cycles> = PoissonArrivals::new(mean, seed).take(n).collect();
            prop_assert_eq!(got, expected, "mean {}, seed {}", mean, seed);
        }
    }
}
