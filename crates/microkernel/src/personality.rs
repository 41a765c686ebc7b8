//! Per-microkernel IPC personalities.
//!
//! Figure 7 of the paper decomposes each kernel's synchronous IPC roundtrip
//! into components (SYSCALL/SYSRET, context switch, IPI, message copy,
//! schedule, others) and reports the totals: seL4 986 / 6764 cycles
//! (single / cross core), Fiasco.OC 2717 / 8440, Zircon 8157 / 20099.
//! A [`Personality`] captures the control-flow differences that produce
//! those numbers:
//!
//! * whether a fastpath exists (Zircon has none);
//! * the software logic on the fast and slow paths;
//! * Fiasco's deferred-request (drq) drain;
//! * the number of message copies (Zircon's channels copy twice);
//! * scheduler involvement;
//! * the kernel text/data footprint each path drags through the caches —
//!   the source of the indirect cost in Table 1.
//!
//! The cycle parameters are calibration constants chosen so the simulated
//! direct costs land near Figure 7; the *footprints* then add the indirect
//! cost on top, as on real hardware.

use sb_sim::Cycles;

/// Cost/behaviour profile of one microkernel's synchronous IPC.
#[derive(Debug, Clone)]
pub struct Personality {
    /// Human-readable name.
    pub name: &'static str,
    /// True if a same-core fastpath exists (seL4, Fiasco.OC).
    pub has_fastpath: bool,
    /// One-way software logic on the fastpath (capability check, endpoint
    /// bookkeeping). seL4: 98 cycles (§2.1.1).
    pub fastpath_logic: Cycles,
    /// One-way software logic on the slowpath.
    pub slowpath_logic: Cycles,
    /// Fiasco.OC's deferred-request drain, charged per one-way fastpath
    /// IPC ("the fastpath in Fiasco.OC may handle deferred requests (drq)
    /// during IPC", §6.3).
    pub drq_cost: Cycles,
    /// Scheduler involvement per one-way slow/scheduled IPC.
    pub schedule_cost: Cycles,
    /// Extra one-way cost on the cross-core path beyond IPI + schedule
    /// (wakeup bookkeeping, remote-queue manipulation, re-scheduling of
    /// both sides — large for Zircon, §6.3).
    pub cross_core_extra: Cycles,
    /// Message copies per one-way transfer (1 = direct sender→receiver,
    /// 2 = via an in-kernel channel buffer, Zircon).
    pub copies_per_transfer: u32,
    /// Fixed overhead per copy (buffer management), in addition to the
    /// per-byte cost.
    pub copy_setup: Cycles,
    /// Largest message carried in registers (no memory copy). Zero for
    /// Zircon, which always copies.
    pub register_msg_max: usize,
    /// L4's *temporary mapping* optimization (§8.1): for long messages the
    /// kernel temporarily maps the sender's buffer into the receiver and
    /// copies once instead of twice. Off by default (it is orthogonal to
    /// SkyBridge; the ablation bench measures it).
    pub temporary_mapping: bool,
    /// Kernel text bytes fetched on the fastpath.
    pub text_fast: usize,
    /// Kernel text bytes fetched on the slowpath.
    pub text_slow: usize,
    /// Kernel data bytes touched per IPC (endpoint, TCBs, scheduler
    /// queues).
    pub data_touch: usize,
    /// Distinct kernel data *pages* referenced per IPC (TCBs, capability
    /// tables, kernel stacks, page-table metadata) — the kernel-side d-TLB
    /// pressure that SkyBridge avoids entirely by never entering the
    /// kernel.
    pub data_pages: usize,
}

impl Personality {
    /// seL4: the fastest of the three; fastpath with in-register messages
    /// and direct process switch.
    pub fn sel4() -> Self {
        Personality {
            name: "seL4",
            has_fastpath: true,
            fastpath_logic: 98,
            slowpath_logic: 300,
            drq_cost: 0,
            schedule_cost: 400,
            cross_core_extra: 0,
            copies_per_transfer: 1,
            copy_setup: 80,
            register_msg_max: 64,
            temporary_mapping: false,
            text_fast: 2048,
            text_slow: 8192,
            data_touch: 512,
            data_pages: 12,
        }
    }

    /// Fiasco.OC: fastpath that also drains deferred requests.
    pub fn fiasco_oc() -> Self {
        Personality {
            name: "Fiasco.OC",
            has_fastpath: true,
            fastpath_logic: 220,
            slowpath_logic: 450,
            drq_cost: 640,
            schedule_cost: 620,
            cross_core_extra: 700,
            copies_per_transfer: 1,
            copy_setup: 100,
            register_msg_max: 64,
            temporary_mapping: false,
            text_fast: 6144,
            text_slow: 12288,
            data_touch: 1024,
            data_pages: 16,
        }
    }

    /// Zircon: no fastpath, preemptible IPC path, channel semantics with
    /// two memory copies per transfer.
    pub fn zircon() -> Self {
        Personality {
            name: "Zircon",
            has_fastpath: false,
            fastpath_logic: 0,
            slowpath_logic: 1500,
            drq_cost: 0,
            schedule_cost: 1900,
            cross_core_extra: 3600,
            copies_per_transfer: 2,
            copy_setup: 320,
            register_msg_max: 0,
            temporary_mapping: false,
            text_fast: 16384,
            text_slow: 16384,
            data_touch: 2048,
            data_pages: 24,
        }
    }

    /// All three evaluation kernels, in the paper's order.
    pub fn all() -> [Personality; 3] {
        [Self::sel4(), Self::fiasco_oc(), Self::zircon()]
    }

    /// This personality with L4's temporary-mapping long-message
    /// optimization enabled (§8.1).
    pub fn with_temporary_mapping(mut self) -> Self {
        self.temporary_mapping = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sel4_fastpath_logic_matches_paper() {
        assert_eq!(Personality::sel4().fastpath_logic, 98);
    }

    #[test]
    fn zircon_has_no_fastpath_and_two_copies() {
        let z = Personality::zircon();
        assert!(!z.has_fastpath);
        assert_eq!(z.copies_per_transfer, 2);
        assert_eq!(z.register_msg_max, 0);
    }

    #[test]
    fn only_fiasco_pays_drq() {
        assert_eq!(Personality::sel4().drq_cost, 0);
        assert!(Personality::fiasco_oc().drq_cost > 0);
        assert_eq!(Personality::zircon().drq_cost, 0);
    }
}
