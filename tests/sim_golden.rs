//! Golden simulated-clock figures.
//!
//! The simulated clock is the paper's claim and may move only when a
//! modelled mechanism changes — never because the simulator's host-side
//! data structures were rearranged for speed. For every personality this
//! runs one fixed, seeded 4,096-call mix (two lanes, reads and writes,
//! payloads from register-sized to most of a page) and pins each lane's
//! final cycle counter and every counter of the machine-wide PMU: 16 rows
//! a personality in `results/pins/sim_golden.json`, first captured before
//! the simulator's caches, TLBs and physical memory were re-laid-out. A
//! moved row means simulated behaviour changed: either a mechanism really
//! did (re-capture, and say why in the change), or a host optimisation is
//! wrong.

mod support;

use sb_runtime::{Request, Transport};
use sb_sim::Pmu;
use skybridge_repro::scenarios::runtime::{build_backend, Backend};
use support::{pins, SplitMix64};

const CALLS: u64 = 4096;
const LANES: usize = 2;

/// Final `[lane 0, lane 1]` clocks and PMU of the mix on one personality.
fn run_mix(backend: &Backend) -> ([u64; LANES], Pmu) {
    let mut t = build_backend(backend, LANES);
    let mut rng = SplitMix64::seeded(0x2a);
    for id in 0..CALLS {
        let r = rng.draw();
        let lane = (r >> 8) as usize % LANES;
        // One call in 16 carries a multi-KiB payload; the rest straddle
        // the register/shared-buffer boundary.
        let payload = if r.is_multiple_of(16) {
            1024 + (r >> 40) as usize % 2048
        } else {
            16 + (r >> 40) as usize % 240
        };
        let req = Request {
            id,
            arrival: 0,
            key: rng.draw() % 10_000,
            write: r.is_multiple_of(3),
            payload,
            client: None,
            tenant: 0,
        };
        t.call(lane, &req)
            .unwrap_or_else(|e| panic!("{}: call {id} failed: {e:?}", backend.label()));
    }
    let clocks = [t.now(0), t.now(1)];
    (
        clocks,
        t.pmu().expect("kernel-backed transports have a PMU"),
    )
}

/// Every counter of `p`, by field name.
fn counters(p: &Pmu) -> [(&'static str, u64); 14] {
    [
        ("l1i_misses", p.l1i_misses),
        ("l1d_misses", p.l1d_misses),
        ("l2_misses", p.l2_misses),
        ("l3_misses", p.l3_misses),
        ("itlb_misses", p.itlb_misses),
        ("dtlb_misses", p.dtlb_misses),
        ("page_walks", p.page_walks),
        ("walk_memory_accesses", p.walk_memory_accesses),
        ("ipis", p.ipis),
        ("vm_exits", p.vm_exits),
        ("vmfuncs", p.vmfuncs),
        ("mode_switches", p.mode_switches),
        ("cr3_writes", p.cr3_writes),
        ("wrpkru_writes", p.wrpkru_writes),
    ]
}

#[test]
fn every_personality_matches_its_golden_clock_and_pmu() {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let label = backend.label();
        let (clocks, pmu) = run_mix(&backend);
        for (lane, clock) in clocks.into_iter().enumerate() {
            rows.push((format!("{label} lane {lane} clock"), clock));
        }
        for (counter, value) in counters(&pmu) {
            rows.push((format!("{label} {counter}"), value));
        }
    }
    pins::check(rows);
}
