//! YCSB workload mixes.

use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::zipf::ScrambledZipfian;

/// One database operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Replace an existing record.
    Update,
    /// Insert a fresh record.
    Insert,
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// Target key.
    pub key: u64,
    /// Payload for writes (field bytes).
    pub value_len: usize,
}

/// Parameters of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Records pre-loaded into the table (the paper uses 10,000).
    pub record_count: u64,
    /// Bytes per record payload.
    pub value_len: usize,
    /// Operation mix as (kind, weight) pairs.
    pub mix: Vec<(OpKind, u32)>,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// YCSB-A: 50% read / 50% update — the workload Figures 9–11 report.
    pub fn ycsb_a(record_count: u64, value_len: usize) -> Self {
        WorkloadSpec {
            record_count,
            value_len,
            mix: vec![(OpKind::Read, 50), (OpKind::Update, 50)],
            seed: 0xa,
        }
    }

    /// YCSB-B: 95% read / 5% update.
    pub fn ycsb_b(record_count: u64, value_len: usize) -> Self {
        WorkloadSpec {
            record_count,
            value_len,
            mix: vec![(OpKind::Read, 95), (OpKind::Update, 5)],
            seed: 0xb,
        }
    }

    /// YCSB-C: 100% read.
    pub fn ycsb_c(record_count: u64, value_len: usize) -> Self {
        WorkloadSpec {
            record_count,
            value_len,
            mix: vec![(OpKind::Read, 100)],
            seed: 0xc,
        }
    }
}

/// A deterministic operation stream.
///
/// # Examples
///
/// ```
/// use sb_ycsb::{Workload, WorkloadSpec};
///
/// let mut w = Workload::new(WorkloadSpec::ycsb_a(10_000, 100));
/// let op = w.next_op();
/// assert!(op.key < 10_000);
/// ```
#[derive(Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    zipf: ScrambledZipfian,
    rng: SmallRng,
    /// The mix's running weight totals; the last is the whole weight.
    bounds: Vec<u32>,
}

impl Workload {
    /// Instantiates the generator.
    pub fn new(spec: WorkloadSpec) -> Self {
        let bounds: Vec<u32> = (spec.mix.iter())
            .scan(0, |total, &(_, w)| {
                *total += w;
                Some(*total)
            })
            .collect();
        assert!(bounds.last().is_some_and(|&t| t > 0), "empty mix");
        Workload {
            zipf: ScrambledZipfian::new(spec.record_count),
            rng: SmallRng::seed_from_u64(spec.seed),
            spec,
            bounds,
        }
    }

    /// Record payload length.
    pub fn value_len(&self) -> usize {
        self.spec.value_len
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let pick = self.rng.gen_range(0..self.bounds[self.bounds.len() - 1]);
        // The entry `pick` falls in is the number of running totals at
        // or below it — no branch on the draw.
        let at: usize = self.bounds.iter().map(|&b| usize::from(b <= pick)).sum();
        let kind = self.spec.mix[at].0;
        Op {
            kind,
            key: self.zipf.next(&mut self.rng),
            value_len: self.spec.value_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_a_mix_is_half_and_half() {
        let mut w = Workload::new(WorkloadSpec::ycsb_a(10_000, 100));
        let mut reads = 0;
        let mut updates = 0;
        for _ in 0..10_000 {
            match w.next_op().kind {
                OpKind::Read => reads += 1,
                OpKind::Update => updates += 1,
                other => panic!("unexpected {other:?} in YCSB-A"),
            }
        }
        let ratio = reads as f64 / (reads + updates) as f64;
        assert!((0.47..0.53).contains(&ratio), "read ratio {ratio}");
    }

    /// The pick as a walk over the mix: the first entry whose weight
    /// the remainder of `pick` falls under.
    fn find(mix: &[(OpKind, u32)], mut pick: u32) -> OpKind {
        mix.iter()
            .find(|(_, w)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map(|(k, _)| *k)
            .expect("weights sum to total")
    }

    /// 10⁷ draws per mix against [`find`] on the same draws: a zero
    /// weight, a one-entry mix and the benchmark's 40/60.
    #[test]
    fn the_pick_is_the_walk_over_the_mix() {
        use OpKind::*;
        let mixes = [
            vec![(Read, 0), (Update, 3), (Insert, 0), (Read, 5)],
            vec![(Update, 7)],
            vec![(Read, 40), (Update, 60)],
        ];
        for mix in mixes {
            let spec = WorkloadSpec {
                mix: mix.clone(),
                ..WorkloadSpec::ycsb_a(10_000, 64)
            };
            let total = mix.iter().map(|&(_, w)| w).sum();
            let mut w = Workload::new(spec.clone());
            let mut same = SmallRng::seed_from_u64(spec.seed);
            let zipf = ScrambledZipfian::new(spec.record_count);
            for _ in 0..10_000_000 {
                let kind = find(&mix, same.gen_range(0..total));
                let key = zipf.next(&mut same);
                assert_eq!(
                    w.next_op(),
                    Op {
                        kind,
                        key,
                        value_len: 64
                    },
                    "{mix:?}"
                );
            }
        }
    }

    #[test]
    fn ycsb_c_is_read_only() {
        let mut w = Workload::new(WorkloadSpec::ycsb_c(1000, 100));
        assert!((0..1000).all(|_| w.next_op().kind == OpKind::Read));
    }

    #[test]
    fn ycsb_b_is_read_heavy() {
        let mut w = Workload::new(WorkloadSpec::ycsb_b(1000, 100));
        let reads = (0..10_000)
            .filter(|_| w.next_op().kind == OpKind::Read)
            .count();
        assert!((9300..9700).contains(&reads), "B is 95% reads: {reads}");
    }

    #[test]
    fn popular_keys_dominate_the_stream() {
        // The zipfian head: the most frequent key appears far more often
        // than the uniform expectation.
        let mut w = Workload::new(WorkloadSpec::ycsb_a(10_000, 100));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(w.next_op().key).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 40, "hot key only {max} of 20k draws (uniform ≈ 2)");
    }

    #[test]
    fn keys_stay_in_range_and_stream_is_deterministic() {
        let mut a = Workload::new(WorkloadSpec::ycsb_a(10_000, 100));
        let mut b = Workload::new(WorkloadSpec::ycsb_a(10_000, 100));
        for _ in 0..1000 {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x, y);
            assert!(x.key < 10_000);
        }
    }
}
