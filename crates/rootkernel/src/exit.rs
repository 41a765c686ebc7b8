//! VM-exit reasons and accounting.

/// Why control left non-root mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// `VMCALL`: the Subkernel↔Rootkernel hypercall interface.
    Vmcall,
    /// An external interrupt arrived while the exit control demanded exits
    /// (the Rootkernel's pass-through configuration avoids these).
    ExternalInterrupt,
    /// A privileged instruction (CR3 write, `HLT`, …) trapped because
    /// pass-through was disabled.
    PrivilegedInstruction,
    /// `VMFUNC` with an invalid leaf or an out-of-range/empty EPTP index.
    VmfuncFault,
}

/// Exit counters, one per reason.
///
/// Table 5's headline is that the count stays **zero** under a real
/// workload; the commercial-hypervisor ablation shows what SkyBridge's
/// pass-through configuration saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExitStats {
    /// `VMCALL` hypercalls.
    pub vmcall: u64,
    /// External-interrupt exits.
    pub external_interrupt: u64,
    /// Privileged-instruction exits.
    pub privileged: u64,
    /// `VMFUNC` faults.
    pub vmfunc_fault: u64,
}

impl ExitStats {
    /// Total exits across all reasons.
    pub fn total(&self) -> u64 {
        self.vmcall + self.external_interrupt + self.privileged + self.vmfunc_fault
    }

    /// Records one exit.
    pub fn record(&mut self, reason: ExitReason) {
        match reason {
            ExitReason::Vmcall => self.vmcall += 1,
            ExitReason::ExternalInterrupt => self.external_interrupt += 1,
            ExitReason::PrivilegedInstruction => self.privileged += 1,
            ExitReason::VmfuncFault => self.vmfunc_fault += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = ExitStats::default();
        s.record(ExitReason::Vmcall);
        s.record(ExitReason::Vmcall);
        s.record(ExitReason::VmfuncFault);
        assert_eq!(s.vmcall, 2);
        assert_eq!(s.vmfunc_fault, 1);
        assert_eq!(s.total(), 3);
    }
}
