//! Load generation: YCSB-mix request factories, tenant assignment, and
//! the open-loop Poisson arrival process.

use std::collections::{BTreeMap, VecDeque};

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sb_sim::Cycles;
use sb_ycsb::{OpKind, ScrambledZipfian, Workload, WorkloadSpec};

use sb_transport::{Request, TenantId};

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
        }
    }

    /// A factory whose every request bills to `tenant`.
    pub fn for_tenant(spec: WorkloadSpec, payload: usize, tenant: TenantId) -> Self {
        let mut f = RequestFactory::new(spec, payload);
        f.tenants = TenantSource::Fixed(tenant);
        f
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

    fn next_tenant(&mut self) -> TenantId {
        match &mut self.tenants {
            TenantSource::Fixed(t) => *t,
            TenantSource::Zipf { zipf, rng } => zipf.next(rng) as TenantId,
            TenantSource::Schedule(q) => q.pop_front().unwrap_or(0),
        }
    }

    /// The next request, stamped with `arrival` (and, for closed-loop
    /// runs, the issuing `client`).
    pub fn make(&mut self, arrival: Cycles, client: Option<usize>) -> Request {
        let tenant = self.next_tenant();
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
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            arrival,
            key: op.key,
            write: !matches!(op.kind, OpKind::Read | OpKind::Scan),
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
        }
    }

    /// The offered rate in requests per million cycles.
    pub fn rate_per_mcycle(&self) -> f64 {
        1e6 / self.mean
    }
}

impl Iterator for PoissonArrivals {
    type Item = Cycles;

    fn next(&mut self) -> Option<Cycles> {
        // Inverse-CDF exponential draw; 1 - u avoids ln(0).
        let u: f64 = self.rng.gen();
        self.t += -self.mean * (1.0 - u).ln();
        Some(self.t as Cycles)
    }
}

#[cfg(test)]
mod tests {
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
}
