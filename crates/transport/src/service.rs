//! The service work every transport personality performs per request.
//!
//! Lives in `sb-transport` (re-exported through `sb-runtime`) so
//! kernel-backed personalities implemented in either crate compare on
//! identical service work: each one calls [`ServiceSpec::serve_record`]
//! from inside its server domain.

use sb_mem::{walk::Access, Gva, MemFault, PAGE_SIZE};
use sb_microkernel::{layout, Kernel, ThreadId};
use sb_sim::Cycles;

use crate::wire::OP_TAG_OFFSET;

/// Base of the server's record region (one 64-byte line per record),
/// mapped into the server process by every kernel-backed transport.
pub const DATA_BASE: Gva = Gva(0x5100_0000);

/// Bytes per stored record line.
pub const RECORD_LINE: usize = 64;

/// What one request does inside the server, shared by every transport so
/// the personalities are compared on identical service work.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Records in the server's table (the paper's YCSB setup uses 10,000).
    pub records: u64,
    /// Fixed per-request compute (parsing, hashing, record handling).
    pub cpu: Cycles,
    /// Server code bytes fetched per request (the handler footprint).
    pub footprint: usize,
    /// Per-call DoS-timeout budget (§7), enforced by the SkyBridge
    /// transport through the facility's watchdog.
    pub timeout: Option<Cycles>,
}

impl ServiceSpec {
    /// Replaces the record count.
    pub fn with_records(mut self, records: u64) -> Self {
        self.records = records;
        self
    }

    /// Replaces the per-request compute.
    pub fn with_cpu(mut self, cpu: Cycles) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the handler footprint.
    pub fn with_footprint(mut self, footprint: usize) -> Self {
        self.footprint = footprint;
        self
    }

    /// Pages the record region spans, plus one of slack.
    pub fn data_pages(&self) -> usize {
        (self.records as usize * RECORD_LINE).div_ceil(PAGE_SIZE as usize) + 1
    }

    /// The record service of one request, run by `tid` inside the server
    /// domain: the wire `payload`'s key picks a record line, the op tag
    /// charges a read or a write of it, and the fixed compute follows.
    ///
    /// The line is touched, not copied: the translation, TLB and cache
    /// charge is [`Kernel::user_read`]'s / [`Kernel::user_write`]'s, but
    /// no host bytes move, so the record heap stays the shared zero frame
    /// of `sb-mem` and costs the host nothing however many records it
    /// spans.
    #[inline]
    pub fn serve_record(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        payload: &[u8],
    ) -> Result<(), MemFault> {
        let key = u64::from_le_bytes(payload[..8].try_into().expect("wire payload"));
        let at = DATA_BASE.add((key % self.records.max(1)) * RECORD_LINE as u64);
        let access = if payload[OP_TAG_OFFSET] == 1 {
            Access::Write
        } else {
            Access::Read
        };
        k.user_touch(tid, at, RECORD_LINE, access)?;
        k.compute(tid, self.cpu);
        Ok(())
    }

    /// The whole handler of a message-buffer personality (kernel IPC,
    /// MPK), run by `tid` in the server domain: fetch the handler's code,
    /// parse the `wire_len`-byte message in place (charge-only — the
    /// bytes are already staged host-side), serve the record, and charge
    /// the echo reply's write over the same buffer. Returns the reply
    /// length.
    #[inline]
    pub(crate) fn serve_in_place(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        wire_len: usize,
        payload: &[u8],
    ) -> Result<usize, MemFault> {
        let buf = k.threads[tid].msg_buf;
        k.user_exec(tid, layout::CODE_BASE, self.footprint)?;
        k.user_touch(tid, buf, wire_len, Access::Read)?;
        self.serve_record(k, tid, payload)?;
        k.user_touch(tid, buf, wire_len, Access::Write)?;
        Ok(payload.len())
    }
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            records: 10_000,
            cpu: 180,
            footprint: 2048,
            timeout: None,
        }
    }
}
