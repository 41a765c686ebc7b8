//! The SkyBridge reproduction's benchmark: five workloads, two clocks.
//!
//! The *simulated* clock (cycles, PMU counts, percentiles in cycles) is
//! deterministic for a seed and must repeat exactly; the *host* clock
//! (ns per operation, set-up seconds, resident MiB) is how fast the
//! simulator and runtime execute and is reported as a median over
//! equal-operation-count chunks of one long run. Every layer is
//! measured from outside, through its public functions; nothing in the
//! repository knows the benchmark exists.
//!
//! See `README.md` beside this crate for the metric and workload
//! tables and how to read the output.

pub mod contract;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod runner;
pub mod timed;
pub mod workloads;
