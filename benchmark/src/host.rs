//! Host-side helpers: memory high-water mark, the host speed unit,
//! reply digests and the exact cycle histogram.

use std::hint::black_box;
use std::time::Instant;

use sb_sim::Cycles;

use crate::timed::Trace;

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` has no such line.
pub fn vm_hwm_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host speed unit: ns per iteration of a memory-bound reference
/// loop (xorshift-indexed read-modify-writes over a 4 MiB array). What
/// slows this host for minutes at a time is a neighbour in the memory
/// system, not the clock: a register-only loop does not notice it
/// (correlation 0.06 with chunk time) while this loop does (0.42).
///
/// Every host time the benchmark reports is corrected by the unit
/// sampled right after it ([`at_reference_speed`]).
pub fn unit_sample() -> f64 {
    /// Iterations per pass; two passes take about a millisecond.
    const ITERS: u64 = 100_000;
    thread_local! {
        static ARR: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![1; 1 << 19]);
    }
    ARR.with_borrow_mut(|arr| {
        let mask = arr.len() - 1;
        let mut pass = || {
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut sum = 0u64;
            let wall = Instant::now();
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x as usize) & mask;
                sum = sum.wrapping_add(arr[i]);
                arr[i] = sum ^ x;
            }
            black_box(sum);
            wall.elapsed().as_nanos() as f64 / ITERS as f64
        };
        // The first pass brings the array to the same cache state
        // whatever ran before — a workload with a smaller footprint must
        // not read as a faster host — and the second is the sample.
        pass();
        pass()
    })
}

/// The unit of the reference host when nothing else runs on it, in ns
/// (median over fifty quiet runs: 2.41).
pub const UNIT_REF_NS: f64 = 2.4;

/// The share of the simulator's and runtime's host time that slows in
/// step with the unit; the rest does not notice the neighbour. Fitted
/// on three workloads in a quiet and in a contended window of this
/// host: raw time rose 29% / 30% / 34% (`xcall_sky`, `serve_ring`,
/// `graph_ro`) while the unit rose 68% / 72% / 85%, i.e. shares of
/// 0.42 / 0.42 / 0.40. Dividing by the whole unit over-corrects: the
/// same three workloads then read 25–35% *lower* in the contended
/// window than in the quiet one.
pub const MEMORY_SHARE: f64 = 0.4;

/// `ns` measured while the host unit read `unit`, expressed at the
/// reference host's quiet speed: the memory-bound share of the time is
/// scaled by how much slower the unit ran than [`UNIT_REF_NS`]. On the
/// quiet reference host this is the identity.
pub fn at_reference_speed(ns: f64, unit: f64) -> f64 {
    ns / (1.0 - MEMORY_SHARE + MEMORY_SHARE * unit / UNIT_REF_NS)
}

/// The host samples of one run: for every chunk of equal operation
/// count, wall ns per operation and the host unit sampled right after
/// it (outside the chunk's time).
pub struct ChunkClock {
    open: Option<Instant>,
    span: Option<(Trace, usize)>,
    /// Wall ns per operation, one per closed chunk.
    pub ns: Vec<f64>,
    /// The host unit after each closed chunk.
    pub unit_ns: Vec<f64>,
}

impl ChunkClock {
    /// A clock with no chunk open. With a `trace`, each unit sample is
    /// recorded as a `bench.unit` span so it stays out of its
    /// neighbours' self time.
    pub fn new(trace: Option<&Trace>) -> Self {
        ChunkClock {
            open: None,
            span: trace.map(|t| (t.clone(), t.name("bench.unit", "benchmark"))),
            ns: Vec::new(),
            unit_ns: Vec::new(),
        }
    }

    /// A chunk boundary: closes the open chunk of `ops` operations (if
    /// any), samples the unit, and opens the next chunk.
    pub fn boundary(&mut self, ops: u64) {
        let now = Instant::now();
        if let Some(start) = self.open {
            self.ns.push((now - start).as_nanos() as f64 / ops as f64);
            if let Some((trace, name)) = &self.span {
                trace.open(*name, self.ns.len() as u64);
            }
            self.unit_ns.push(unit_sample());
            if let Some((trace, _)) = &self.span {
                trace.close(0);
            }
        }
        self.open = Some(Instant::now());
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An order-sensitive digest folded eight bytes at a time: cheap enough
/// to run on every reply inside a timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME).rotate_left(23);
    }

    /// Folds `bytes` (length included, tail zero-padded).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
    }
}

/// An exact histogram of per-call cycle counts: one counter per cycle
/// value up to [`CycleHist::CAP`], so percentiles are exact, not
/// bucketed.
pub struct CycleHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for CycleHist {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleHist {
    /// Values at or above this are counted but not told apart.
    pub const CAP: usize = 1 << 17;

    /// An empty histogram.
    pub fn new() -> Self {
        CycleHist {
            counts: vec![0; Self::CAP],
            n: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: Cycles) {
        self.n += 1;
        if let Some(c) = self.counts.get_mut(v as usize) {
            *c += 1;
        }
    }

    /// Nearest-rank percentile; [`CycleHist::CAP`] if it falls among
    /// the values at or above it.
    pub fn percentile(&self, p: f64) -> Cycles {
        if self.n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * (self.n - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen > rank {
                return v as Cycles;
            }
        }
        Self::CAP as Cycles
    }
}

/// Times `reps` repetitions of `f` (each doing `iters` operations) and
/// returns the median host ns per operation. Fixed counts, never a time
/// box, so the simulated side of a probe stays exact.
pub fn ns_per_op(reps: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let wall = Instant::now();
        f(iters);
        let ns = wall.elapsed().as_nanos() as f64 / iters as f64;
        samples.push(at_reference_speed(ns, unit_sample()));
    }
    crate::metrics::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_percentiles_are_exact() {
        let mut h = CycleHist::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 51);
        assert_eq!(h.percentile(99.0), 99);
        h.record(1 << 40);
        assert_eq!(h.percentile(100.0), CycleHist::CAP as u64);
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        let mut a = Digest::default();
        a.bytes(&[1, 2, 3]);
        a.bytes(&[4]);
        let mut b = Digest::default();
        b.bytes(&[4]);
        b.bytes(&[1, 2, 3]);
        let mut c = Digest::default();
        c.bytes(&[1, 2, 3, 0]);
        c.bytes(&[4]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rss_reads_something_on_linux() {
        assert!(vm_hwm_mib() >= 0.0);
    }
}
