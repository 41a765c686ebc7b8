//! Property tests of the translation machinery: the charged hardware
//! walker must agree with the setup-time walker for every mapping, under
//! every EPT, with any TLB state.

use proptest::prelude::*;
use sb_mem::{
    ept::{Ept, EptPerms, PageSize},
    paging::{AddressSpace, PteFlags},
    phys::RESERVED_BYTES,
    walk::{self, Access},
    Gpa, Gva, HostMem, Hpa, PAGE_SIZE,
};
use sb_sim::Machine;

fn arb_flags() -> impl Strategy<Value = PteFlags> {
    (any::<bool>(), any::<bool>(), 0u8..16).prop_map(|(write, exec, pkey)| PteFlags {
        write,
        user: true,
        exec,
        pkey,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Charged translation equals setup translation (identity EPT), for
    /// random sparse mappings and random access orders.
    #[test]
    fn charged_walk_matches_setup_walk(
        pages in proptest::collection::btree_map(0u64..512, arb_flags(), 1..24),
        accesses in proptest::collection::vec(0u64..512, 1..64),
    ) {
        let mut m = Machine::skylake();
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 3);
        let base = 0x4000_0000u64;
        for (&page, &flags) in &pages {
            asp.alloc_and_map(
                &mut mem,
                Gva(base + page * PAGE_SIZE),
                1,
                flags,
            );
        }
        m.cpu_mut(0).load_cr3(asp.root_gpa.0, 3);
        for page in accesses {
            let gva = Gva(base + page * PAGE_SIZE + (page % 4000));
            let charged = walk::translate(&mut m, 0, &mem, gva, Access::Read, true);
            let setup = asp.translate_setup(&mem, gva);
            match (charged, setup) {
                (Ok(hpa), Ok((gpa, _))) => prop_assert_eq!(hpa.0, gpa.0),
                (Err(_), Err(_)) => {}
                (c, s) => prop_assert!(
                    false,
                    "walkers disagree at {gva:?}: charged={c:?} setup={s:?}"
                ),
            }
        }
    }

    /// Under the huge-page base EPT plus a CR3-remapped binding EPT,
    /// switching EPT roots swaps which process's bytes are visible —
    /// for arbitrary page sets and values.
    #[test]
    fn cr3_remap_swaps_views(
        pages in proptest::collection::btree_set(0u64..64, 1..12),
        seed in any::<u64>(),
    ) {
        let mut m = Machine::skylake();
        let mut mem = HostMem::new();
        let client = AddressSpace::new(&mut mem, 1);
        let server = AddressSpace::new(&mut mem, 2);
        let base = 0x5000_0000u64;
        for &p in &pages {
            client.alloc_and_map(&mut mem, Gva(base + p * PAGE_SIZE), 1, PteFlags::USER_DATA);
            server.alloc_and_map(&mut mem, Gva(base + p * PAGE_SIZE), 1, PteFlags::USER_DATA);
        }
        let base_ept = Ept::new(&mut mem);
        base_ept.map_identity_range(&mut mem, RESERVED_BYTES, 1 << 30, PageSize::Size2M, EptPerms::RWX);
        let (bind, _) = Ept::shallow_copy_with_remap(
            &mut mem,
            &base_ept,
            client.root_gpa,
            Hpa(server.root_gpa.0),
        );
        // Write distinct values through each view.
        m.cpu_mut(0).load_cr3(client.root_gpa.0, 1);
        m.cpu_mut(0).load_eptp(base_ept.root.0);
        for &p in &pages {
            walk::write_bytes(&mut m, 0, &mut mem, Gva(base + p * PAGE_SIZE), &(seed ^ p).to_le_bytes(), true).unwrap();
        }
        m.cpu_mut(0).load_eptp(bind.root.0); // VMFUNC; CR3 untouched.
        for &p in &pages {
            walk::write_bytes(&mut m, 0, &mut mem, Gva(base + p * PAGE_SIZE), &(!(seed ^ p)).to_le_bytes(), true).unwrap();
        }
        // Verify both views read back their own values.
        m.cpu_mut(0).load_eptp(base_ept.root.0);
        for &p in &pages {
            prop_assert_eq!(
                walk::read_u64(&mut m, 0, &mem, Gva(base + p * PAGE_SIZE), true).unwrap(),
                seed ^ p
            );
        }
        m.cpu_mut(0).load_eptp(bind.root.0);
        for &p in &pages {
            prop_assert_eq!(
                walk::read_u64(&mut m, 0, &mem, Gva(base + p * PAGE_SIZE), true).unwrap(),
                !(seed ^ p)
            );
        }
    }

    /// The EPT identity map is really the identity over its covered range,
    /// at any granule.
    #[test]
    fn identity_ept_is_identity(
        offsets in proptest::collection::vec(0u64..(1u64 << 30), 1..32),
        granule in prop_oneof![Just(PageSize::Size2M), Just(PageSize::Size4K)],
    ) {
        let mut mem = HostMem::new();
        let ept = Ept::new(&mut mem);
        match granule {
            PageSize::Size4K => {
                // 4 KiB over a small window only (construction cost).
                for page in 0..1024u64 {
                    let at = RESERVED_BYTES + page * PAGE_SIZE;
                    ept.map(&mut mem, Gpa(at), Hpa(at), PageSize::Size4K, EptPerms::RWX);
                }
                for off in offsets {
                    let gpa = Gpa(RESERVED_BYTES + off % (1024 * PAGE_SIZE));
                    prop_assert_eq!(ept.translate(&mem, gpa).unwrap().hpa.0, gpa.0);
                }
            }
            _ => {
                ept.map_identity_range(&mut mem, RESERVED_BYTES, 1 << 30, PageSize::Size2M, EptPerms::RWX);
                for off in offsets {
                    let gpa = Gpa(RESERVED_BYTES + off % ((1 << 30) - RESERVED_BYTES));
                    prop_assert_eq!(ept.translate(&mem, gpa).unwrap().hpa.0, gpa.0);
                }
            }
        }
    }

    /// Memory written through the charged path reads back identically
    /// through both paths, for random spans (page-straddling included).
    #[test]
    fn write_read_bytes_roundtrip(
        off in 0usize..8000,
        data in proptest::collection::vec(any::<u8>(), 1..6000),
    ) {
        let mut m = Machine::skylake();
        let mut mem = HostMem::new();
        let asp = AddressSpace::new(&mut mem, 5);
        asp.alloc_and_map(&mut mem, Gva(0x9000_0000), 4, PteFlags::USER_DATA);
        m.cpu_mut(0).load_cr3(asp.root_gpa.0, 5);
        let off = off.min(16384 - data.len());
        let gva = Gva(0x9000_0000 + off as u64);
        walk::write_bytes(&mut m, 0, &mut mem, gva, &data, true).unwrap();
        let mut out = vec![0u8; data.len()];
        walk::read_bytes(&mut m, 0, &mem, gva, &mut out, true).unwrap();
        prop_assert_eq!(out, data);
    }
}
