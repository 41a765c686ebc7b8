//! Zipfian key-choice distributions (YCSB's request generator).

use rand::Rng;

/// YCSB's default Zipfian constant.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// The integer the tail exponent 1/(1 − θ) = 99.99999999999991 rounds
/// to: [`Zipfian::power`] raises to it by multiplication.
const POWER: f64 = 100.0;

/// How far below [`POWER`] the exponent may lie for the fast path's
/// error bound to hold (`new` checks it).
const POWER_SLACK: f64 = 1.0 / (1u64 << 43) as f64;

/// The fast path's margin around an integer, as a fraction of `n`.
const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// A Zipfian generator over `[0, n)` (Gray et al.'s incremental method,
/// as used by YCSB's `ZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    /// 1 + 0.5^θ: a draw with 1 ≤ u · ζ(n) below it is rank 1.
    head: f64,
    /// Distance from an integer a fast-path rank must keep: `n` ×
    /// [`MARGIN`], or ∞ where the bound in [`Zipfian::power`] is not
    /// established.
    margin: f64,
}

impl Zipfian {
    /// A generator over `n` items with the default constant.
    pub fn new(n: u64) -> Self {
        assert!(n > 0);
        let theta = ZIPFIAN_CONSTANT;
        let zeta2theta = Self::zeta(2, theta);
        let zetan = Self::zeta(n, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        let exponent_near = (0.0..=POWER_SLACK).contains(&(POWER - alpha));
        let proven = exponent_near && n <= 1 << 53 && (0.0..1.0).contains(&eta);
        Zipfian {
            items: n,
            zetan,
            alpha,
            eta,
            head: 1.0 + 0.5f64.powf(theta),
            margin: n as f64 * if proven { MARGIN } else { f64::INFINITY },
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws the next rank (0 = most popular).
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        self.rank(unit(rng.next_u64()))
    }

    /// The rank of a uniform draw `u ∈ [0, 1)`: 0 and 1 from the head
    /// thresholds, past them ⌊n · x^α⌋ — by [`Zipfian::power`] where it
    /// is proven equal, else by its definition, [`Zipfian::tail`].
    fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.head {
            return 1;
        }
        let x = self.eta * u - self.eta + 1.0;
        self.power(x).unwrap_or_else(|| self.tail(x))
    }

    /// [`Zipfian::tail`] without libm, where it can be proven equal.
    ///
    /// z = n · x¹⁰⁰ by seven multiplications — x², x⁴ … x⁶⁴ by squaring,
    /// then ((n · x⁴) · x³²) · x⁶⁴ — and ⌊z⌋ is the answer when z lies
    /// more than m = n · 2⁻⁴⁰ from every integer; otherwise, and wherever
    /// `new` could not establish the premises below (m = ∞), `None`.
    ///
    /// Why ⌊z⌋ is then `tail`'s answer. 0 < x ≤ 1 because 0 ≤ η < 1. Let
    /// X = x¹⁰⁰ exactly and ε = 2⁻⁵³. Each computed power is ≤ 1 and no
    /// smaller than the next, so an underflowed one would leave z far
    /// below m; accepting needs z > m, so none did, and:
    /// - the chain holds 100 rounding factors (1 + δ), |δ| ≤ ε, so
    ///   z = n·X·(1 + e₁) with |e₁| ≤ 100ε/(1 − 100ε) < 1.2·10⁻¹⁴;
    /// - z > m gives X > 2⁻⁴⁰/(1 + e₁), so −ln x < 0.28, and since `new`
    ///   checked 0 ≤ 100 − α ≤ 2⁻⁴³, x^α = X · e^{(100 − α)(−ln x)}
    ///   = X·(1 + e₂) with 0 ≤ e₂ < 3.3·10⁻¹⁴;
    /// - `tail` computes y = n · x^α · (1 + e₃)(1 + e₄), with e₃ the error
    ///   of libm's `pow` and |e₄| ≤ ε that of the product.
    ///
    /// So |y − z| < n · (4.6·10⁻¹⁴ + 1.01·|e₃|), which is below
    /// m = n · 9.09·10⁻¹³ for any `pow` within 8·10⁻¹³ relative error
    /// (3 600 ulps; glibc documents 1). z and y then share their floor,
    /// and ⌊z⌋ < n because z ≤ n is not an integer, so `tail`'s clamp
    /// does not apply. `z − ⌊z⌋` is exact: z < 2⁵³ since n ≤ 2⁵³.
    fn power(&self, x: f64) -> Option<u64> {
        let x2 = x * x;
        let x4 = x2 * x2;
        let x8 = x4 * x4;
        let x16 = x8 * x8;
        let x32 = x16 * x16;
        let x64 = x32 * x32;
        let z = self.items as f64 * x4 * x32 * x64;
        let floor = z as u64;
        let frac = z - floor as f64;
        (frac > self.margin && frac < 1.0 - self.margin).then_some(floor)
    }

    /// The definition of a tail rank, ⌊n · x^α⌋, clamped into `[0, n)`:
    /// the largest draw, u = 1 − 2⁻⁵³, rounds x to 1 and n · 1 to n.
    fn tail(&self, x: f64) -> u64 {
        (((self.items as f64) * x.powf(self.alpha)) as u64).min(self.items - 1)
    }
}

/// `rng.gen::<f64>()` of a draw `bits`: (bits >> 11) · 2⁻⁵³, the same
/// value, built without an integer-to-float conversion. `cvtsi2sd`
/// writes only the low half of its register, so it waits for whatever
/// last wrote the rest — in a caller that reloads the previous result
/// through memory, the whole previous draw (DESIGN.md §22).
///
/// With m = bits >> 11 < 2⁵³, v = 0.5 + (m mod 2⁵²) · 2⁻⁵³ is m · 2⁻⁵³
/// when m ≥ 2⁵², and v − 0.5 is, exactly, when m < 2⁵².
fn unit(bits: u64) -> f64 {
    const HALF: u64 = 0x3fe0_0000_0000_0000;
    let v = f64::from_bits(HALF | ((bits >> 11) & ((1 << 52) - 1)));
    v - f64::from_bits((!bits >> 63) * HALF)
}

/// YCSB's scrambled Zipfian: Zipfian ranks hashed over the key space so
/// the popular keys are spread across the table instead of clustered.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
    items: u64,
    /// Low bytes a rank below `items` can have nonzero: the hash folds
    /// only these.
    bytes: u32,
    /// `FNV_PRIME^(8 − bytes)`: the folds of the zero high bytes, which
    /// leave the hash's xor a no-op, as one multiply.
    zeros: u64,
}

impl ScrambledZipfian {
    /// A generator over `n` keys.
    pub fn new(n: u64) -> Self {
        let inner = Zipfian::new(n);
        let bytes = (u64::BITS - (n - 1).leading_zeros()).div_ceil(8);
        ScrambledZipfian {
            inner,
            items: n,
            bytes,
            zeros: (bytes..8).fold(1, |p, _| p.wrapping_mul(FNV_PRIME)),
        }
    }

    /// Draws the next key in `[0, n)`.
    pub fn next<R: Rng>(&self, rng: &mut R) -> u64 {
        self.scramble(self.inner.next(rng))
    }

    /// `fnv_hash(rank) % n` for a rank below `n`.
    fn scramble(&self, rank: u64) -> u64 {
        fnv_fold(rank, self.bytes).wrapping_mul(self.zeros) % self.items
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit (YCSB's scrambling hash).
pub fn fnv_hash(v: u64) -> u64 {
    fnv_fold(v, 8)
}

/// FNV-1a over the low `bytes` bytes of `v`, least significant first.
fn fnv_fold(mut v: u64, bytes: u32) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..bytes {
        hash ^= v & 0xff;
        v >>= 8;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use rand::{rngs::SmallRng, RngCore, SeedableRng};

    use super::*;

    #[test]
    fn ranks_are_in_range() {
        let z = Zipfian::new(1000);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed() {
        let z = Zipfian::new(1000);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        // Rank 0 must dominate the median rank by a wide margin.
        assert!(counts[0] > 20 * counts[500].max(1));
        // And the head (top 10%) should take well over half the mass.
        let head: u32 = counts[..100].iter().sum();
        assert!(head as f64 > 0.6 * 100_000.0);
    }

    #[test]
    fn scrambled_spreads_the_head() {
        let z = ScrambledZipfian::new(1000);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(z.next(&mut rng));
        }
        // The popular keys are hashed apart: many distinct keys appear.
        assert!(seen.len() > 100);
        assert!(seen.iter().all(|&k| k < 1000));
    }

    /// A generator whose every draw is the same 64 bits.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn the_largest_draw_still_ranks_below_n() {
        // u64::MAX is the largest u the sampler produces, 1 − 2⁻⁵³.
        for n in [1, 2, 3, 8, 1_000, 4_096, 10_000] {
            let rank = Zipfian::new(n).next(&mut Fixed(u64::MAX));
            assert!(rank < n, "rank {rank} of {n} items");
        }
    }

    #[test]
    fn unit_is_the_samplers_f64() {
        let mut rng = SmallRng::seed_from_u64(5);
        let edges = [
            0,
            1,
            (1 << 11) - 1,
            1 << 11,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ];
        for bits in edges
            .into_iter()
            .chain((0..100_000).map(|_| rng.next_u64()))
        {
            let sampled: f64 = Fixed(bits).gen();
            assert_eq!(unit(bits).to_bits(), sampled.to_bits(), "{bits:#x}");
        }
    }

    /// The rank as `next` defined it before [`Zipfian::power`]: the head
    /// threshold by `pow` on every draw, the tail by [`Zipfian::tail`].
    fn libm_rank(z: &Zipfian, u: f64) -> u64 {
        let uz = u * z.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(std::hint::black_box(ZIPFIAN_CONSTANT)) {
            return 1;
        }
        z.tail(z.eta * u - z.eta + 1.0)
    }

    /// The degenerate tables, the benchmark's tenant count, the graph
    /// workloads' records and the paper's 10 000.
    const SIZES: [u64; 6] = [1, 2, 3, 8, 4_096, 10_000];

    /// The sampler's grid: u = m · 2⁻⁵³ for m < 2⁵³.
    const GRID: u64 = 1 << 53;

    fn at(m: u64) -> f64 {
        unit(m << 11)
    }

    #[test]
    fn the_head_threshold_is_the_per_draw_expression() {
        let theta = std::hint::black_box(ZIPFIAN_CONSTANT);
        let head = Zipfian::new(10).head.to_bits();
        assert_eq!(head, (1.0 + 0.5f64.powf(theta)).to_bits());
        // What an optimised build made of `0.5f64.powf(self.theta)`.
        assert_eq!(head, (1.0 + (-theta).exp2()).to_bits());
    }

    #[test]
    fn the_exponent_is_within_the_proven_slack_of_the_power() {
        let alpha = Zipfian::new(10).alpha;
        assert!((0.0..=POWER_SLACK).contains(&(POWER - alpha)), "{alpha}");
        assert!(SIZES[2..]
            .iter()
            .all(|&n| Zipfian::new(n).margin.is_finite()));
    }

    /// Every rank boundary on the grid, found by bisection with the libm
    /// expression: the ranks agree within two grid steps of it, where
    /// `power` must decline, and at the first points `power` accepts on
    /// either side of it.
    #[test]
    fn every_rank_boundary_on_the_grid_matches_the_libm_expression() {
        for n in SIZES {
            let z = Zipfian::new(n);
            let same = |m: u64| {
                let u = at(m);
                assert_eq!(z.rank(u), libm_rank(&z, u), "n {n}, m {m}");
            };
            let accepted = |m: u64| z.power(z.eta * at(m) - z.eta + 1.0).is_some();
            let mut answered = 0;
            for r in 1..n {
                let boundary = partition(0, GRID, |m| libm_rank(&z, at(m)) >= r);
                if boundary == GRID {
                    continue; // no draw reaches rank r
                }
                for m in boundary.saturating_sub(2)..(boundary + 3).min(GRID) {
                    same(m);
                }
                let below = boundary
                    .checked_sub(1)
                    .and_then(|b| nearest(b, -1, accepted));
                for m in below.into_iter().chain(nearest(boundary, 1, accepted)) {
                    same(m);
                    answered += 1;
                }
            }
            assert!(
                n < 8 || answered > n,
                "n {n}: {answered} neighbours answered"
            );
        }
    }

    /// The grid point nearest `from` in direction `dir` at which
    /// `accepted` holds — doubling out, then bisecting back — if the grid
    /// has one.
    fn nearest(from: u64, dir: i64, accepted: impl Fn(u64) -> bool) -> Option<u64> {
        let point = |d: u64| {
            from.checked_add_signed(dir * d as i64)
                .filter(|&m| m < GRID)
        };
        let mut reach = 1;
        while !accepted(point(reach)?) {
            reach *= 2;
        }
        point(partition(reach / 2 + 1, reach, |d| {
            accepted(point(d).unwrap())
        }))
    }

    /// The smallest `m` in `lo..hi` with `pred(m)`, for a predicate false
    /// then true over the range (`hi` if it never holds).
    fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Random draws through `next` against the libm expression on the
    /// same draws: 10⁷ per size.
    #[test]
    fn random_draws_match_the_libm_expression() {
        for n in SIZES {
            let z = Zipfian::new(n);
            let mut rng = SmallRng::seed_from_u64(n);
            let mut same = rng.clone();
            for _ in 0..10_000_000 {
                assert_eq!(z.next(&mut rng), libm_rank(&z, same.gen()), "n {n}");
            }
        }
    }

    /// Sizes at each byte-count edge, the benchmark's tenant count, the
    /// graph workloads' records and the paper's 10 000.
    const SCRAMBLED: [u64; 11] = [1, 2, 3, 8, 255, 256, 257, 4_096, 10_000, 65_536, 65_537];

    #[test]
    fn the_fold_is_the_hash_for_every_rank_below_n() {
        for n in SCRAMBLED {
            let z = ScrambledZipfian::new(n);
            for rank in 0..n {
                assert_eq!(z.scramble(rank), fnv_hash(rank) % n, "n {n}, rank {rank}");
            }
        }
    }

    /// 10⁷ keys per size against the definition on the same draws.
    #[test]
    fn scrambled_draws_are_the_hash_of_the_rank() {
        for n in SCRAMBLED {
            let z = ScrambledZipfian::new(n);
            let mut rng = SmallRng::seed_from_u64(n);
            let mut same = rng.clone();
            for _ in 0..10_000_000 {
                let want = fnv_hash(z.inner.next(&mut same)) % n;
                assert_eq!(z.next(&mut rng), want, "n {n}");
            }
        }
    }

    #[test]
    fn fnv_is_deterministic() {
        assert_eq!(fnv_hash(42), fnv_hash(42));
        assert_ne!(fnv_hash(42), fnv_hash(43));
    }
}
