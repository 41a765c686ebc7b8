//! Golden simulated-clock figures.
//!
//! The simulated clock is the paper's claim and may move only when a
//! modelled mechanism changes — never because the simulator's host-side
//! data structures were rearranged for speed. For every personality this
//! runs one fixed, seeded 4,096-call mix (two lanes, reads and writes,
//! payloads from register-sized to most of a page) and compares each lane's
//! final cycle counter and the machine-wide PMU against constants
//! captured before the simulator's caches, TLBs and physical memory were
//! re-laid-out. A diff here means simulated behaviour changed: either a
//! mechanism really did (re-capture, and say why in the PR), or a host
//! optimisation is wrong.
//!
//! Re-captured once: PR 23 moved SkyBridge's function-list page off
//! d-TLB page colour 0 (`layout::SERVER_LIST_BASE`, DESIGN.md §9) — the
//! one modelling change since the capture. Only the `skybridge` row
//! moved (lane clocks 1 910 325 / 1 724 536 → 1 885 319 / 1 699 967;
//! d-TLB misses 3 075 → 2 590, walk accesses 72 771 → 62 226, L1d misses
//! 8 621 → 5 286); the trap kernels and MPK never map that page and kept
//! their constants.

use sb_runtime::{Request, Transport};
use sb_sim::Pmu;
use skybridge_repro::scenarios::runtime::{build_backend, Backend};

const CALLS: u64 = 4096;
const LANES: usize = 2;

/// Final `[lane 0, lane 1]` clocks and PMU of the mix on one personality.
fn run_mix(backend: &Backend) -> ([u64; LANES], Pmu) {
    let mut t = build_backend(backend, LANES);
    // SplitMix64: the stream is part of the golden and must not depend on
    // any crate's generator.
    let mut state = 0x5eed_0000_0000_002au64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for id in 0..CALLS {
        let r = next();
        let lane = (r >> 8) as usize % LANES;
        // One call in 16 carries a multi-KiB payload; the rest straddle
        // the register/shared-buffer boundary.
        let payload = if r % 16 == 0 {
            1024 + (r >> 40) as usize % 2048
        } else {
            16 + (r >> 40) as usize % 240
        };
        let req = Request {
            id,
            arrival: 0,
            key: next() % 10_000,
            write: r % 3 == 0,
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

/// `(label, final lane clocks, machine-wide PMU)` captured on the commit
/// before the flat `Cache`/`Tlb` and the direct-indexed `HostMem` landed
/// (`skybridge`: on PR 23's layout).
fn goldens() -> Vec<(&'static str, [u64; LANES], Pmu)> {
    let pmu = |v: [u64; 14]| Pmu {
        l1i_misses: v[0],
        l1d_misses: v[1],
        l2_misses: v[2],
        l3_misses: v[3],
        itlb_misses: v[4],
        dtlb_misses: v[5],
        page_walks: v[6],
        walk_memory_accesses: v[7],
        ipis: v[8],
        vm_exits: v[9],
        vmfuncs: v[10],
        mode_switches: v[11],
        cr3_writes: v[12],
        wrpkru_writes: v[13],
    };
    vec![
        (
            "seL4",
            [6_229_334, 6_115_952],
            pmu([
                320, 5147, 4369, 3809, 6, 2962, 2932, 11_728, 0, 0, 0, 8192, 8194, 0,
            ]),
        ),
        (
            "Fiasco.OC",
            [8_317_922, 8_175_742],
            pmu([
                448, 5252, 4533, 3909, 8, 3064, 3026, 12_104, 0, 0, 0, 8192, 8194, 0,
            ]),
        ),
        (
            "Zircon",
            [20_874_926, 20_664_738],
            pmu([
                576, 15_067, 4828, 4091, 10, 3298, 3244, 12_976, 0, 0, 0, 8192, 8194, 0,
            ]),
        ),
        (
            "skybridge",
            [1_885_319, 1_699_967],
            pmu([
                68, 5286, 4044, 3608, 4, 2590, 2594, 62_226, 0, 7, 8194, 0, 2, 0,
            ]),
        ),
        (
            "mpk",
            [979_062, 956_256],
            pmu([
                64, 4106, 3947, 3518, 2, 2486, 2488, 9952, 0, 0, 0, 0, 2, 8194,
            ]),
        ),
    ]
}

#[test]
fn every_personality_matches_its_golden_clock_and_pmu() {
    let goldens = goldens();
    let backends = Backend::all();
    assert_eq!(backends.len(), goldens.len(), "one golden per personality");
    for (b, (label, clocks, pmu)) in backends.iter().zip(goldens) {
        assert_eq!(b.label(), label, "personality order changed");
        let (got_clocks, got_pmu) = run_mix(b);
        assert_eq!(got_clocks, clocks, "{label}: final lane clocks moved");
        assert_eq!(got_pmu, pmu, "{label}: PMU moved");
    }
}
