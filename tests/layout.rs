//! The shared address-space layout, held to the hardware it lives in.
//!
//! `sb_microkernel::layout` places every region of every process, and
//! two properties of that placement are easy to lose with a one-constant
//! edit and invisible when lost: the regions' full windows must not run
//! into one another (a stack mapped over the identity page is silent),
//! and the pages one SkyBridge crossing touches must fit the d-TLB's
//! associativity (five entries in one four-way set cost three nested
//! walks per call, forever — DESIGN.md §9 has the history).

use sb_mem::{Gva, PAGE_SIZE as PAGE};
use sb_microkernel::layout;
use sb_sim::{Tlb, TlbConfig, TlbTag};
use sb_transport::DATA_BASE;

/// The `(name, tag, page)` d-TLB entries one long-payload SkyBridge
/// crossing needs, into the `ordinal`-th server of its process: the
/// client reads the function list and fills the shared buffer under its
/// own EPT; the server checks the key table, reads the buffer and
/// touches a record of its data region under the binding EPT.
fn crossing_pages(ordinal: u64) -> Vec<(&'static str, TlbTag, Gva)> {
    let client = TlbTag {
        pcid: 1,
        ept_root: 0x1000,
    };
    let server = TlbTag {
        pcid: 2,
        ept_root: 0x2000,
    };
    vec![
        ("function list", client, layout::SERVER_LIST_BASE),
        ("shared buffer (client)", client, layout::SB_SHARED_BUF_BASE),
        (
            "key table",
            server,
            layout::KEY_TABLE_BASE.add(ordinal * PAGE),
        ),
        ("shared buffer (server)", server, layout::SB_SHARED_BUF_BASE),
        ("record page 0", server, DATA_BASE),
    ]
}

/// A VMFUNC crossing leaves the TLB alone (Table 2), so a warm call
/// must find all of its translations resident: filled into a d-TLB of
/// the modelled geometry, every one of them is still there afterwards.
#[test]
fn one_crossings_pages_fit_the_dtlbs_associativity() {
    let config = TlbConfig::skylake_dtlb();
    for ordinal in 0..8 {
        let pages = crossing_pages(ordinal);
        let mut tlb = Tlb::new(config);
        for &(_, tag, at) in &pages {
            tlb.insert(tag, at.0 / PAGE, 0, 0);
        }
        let evicted: Vec<&str> = pages
            .iter()
            .filter(|&&(_, tag, at)| tlb.lookup(tag, at.0 / PAGE).is_none())
            .map(|&(name, ..)| name)
            .collect();
        let sets: Vec<String> = pages
            .iter()
            .map(|(name, _, at)| {
                format!(
                    "{name} {:#x} → set {}",
                    at.0,
                    at.0 / PAGE % config.sets() as u64
                )
            })
            .collect();
        assert!(
            evicted.is_empty(),
            "server ordinal {ordinal}: a {}-way d-TLB set cannot hold one crossing's pages \
             ({evicted:?} evicted); give a region a page colour of its own:\n  {}",
            config.ways,
            sets.join("\n  ")
        );
    }
}

/// Every region at its full window — `SB_SERVERS_PER_PROCESS` servers of
/// `SB_CONNECTIONS` connections in one process, `SB_SERVERS` on the
/// machine — ends at or below the next region's base.
#[test]
fn the_regions_are_disjoint_at_their_full_windows() {
    let per_process = layout::SB_SERVERS_PER_PROCESS as u64;
    let slots = per_process * layout::SB_CONNECTIONS as u64;
    let mut regions = [
        ("rewrite page", layout::REWRITE_PAGE, PAGE),
        ("code", layout::CODE_BASE, layout::CODE_MAX as u64),
        // Sized by their users, not by the layout: a boundary for the
        // regions below them only.
        ("heap", layout::HEAP_BASE, PAGE),
        ("data region", DATA_BASE, PAGE),
        ("message buffers", layout::MSG_BUF_BASE, PAGE),
        ("trampoline", layout::TRAMPOLINE_BASE, PAGE),
        (
            "server stacks",
            layout::SB_STACK_BASE,
            slots * layout::SB_STACK_SIZE as u64,
        ),
        ("identity page", layout::IDENTITY_PAGE, PAGE),
        ("key tables", layout::KEY_TABLE_BASE, per_process * PAGE),
        (
            "function list",
            layout::SERVER_LIST_BASE,
            layout::SB_SERVERS as u64 * 8,
        ),
        (
            "shared buffers",
            layout::SB_SHARED_BUF_BASE,
            (layout::SB_SERVERS * layout::SB_CONNECTIONS * layout::SB_SHARED_BUF_SIZE) as u64,
        ),
    ];
    assert!(
        layout::SB_SERVERS as u64 * 8 <= PAGE,
        "one-page function list"
    );
    assert!(
        layout::SB_CONNECTIONS as u64 * 8 <= PAGE,
        "one-page key table"
    );
    regions.sort_by_key(|&(_, base, _)| base.0);
    for pair in regions.windows(2) {
        let ((low, base, len), (high, next, _)) = (pair[0], pair[1]);
        assert!(
            base.0 + len <= next.0,
            "{low} [{:#x}, {:#x}) runs into {high} at {:#x}",
            base.0,
            base.0 + len,
            next.0
        );
    }
}
