//! The Wire message layout: one fixed header plus an in-place payload.
//!
//! The paper's call path is a thin, fixed-cost trampoline: small arguments
//! travel in the register image the trampoline saves and restores, and
//! anything larger is written **once** into the per-server-thread shared
//! buffer and served in place. This module is the host-side picture of
//! that discipline, shared by every transport personality:
//!
//! ```text
//!  shared buffer (one per lane, §4.4)
//!  ┌──────────────────────────┬───────────────────────────────┐
//!  │ WireHeader (24 bytes)    │ payload (≥ 9 bytes)           │
//!  │ opcode · corr · deadline │ key (8 LE) · op tag · padding │
//!  │ · payload len            │                               │
//!  └──────────────────────────┴───────────────────────────────┘
//! ```
//!
//! A transport encodes a [`Request`] into its lane's staging image exactly
//! once per call ([`Lane::encode`]); the server reads the payload in place
//! and the reply for the echo service contract *is* the payload half of
//! the buffer — no `to_vec()`, no read-back copy, no reply
//! materialisation on the hot path. [`CopyMeter`] counts the bytes the
//! marshalling layer actually moves, so the benchmark's
//! `transport.bytes_copied_per_op` can show the copy stays away.

use std::cell::Cell;
use std::rc::Rc;

use sb_sim::Cycles;

/// Bytes of the fixed wire header preceding every buffered payload.
pub const WIRE_HEADER_LEN: usize = 24;

/// Minimum payload bytes: an 8-byte key plus a 1-byte op tag.
pub const WIRE_MIN: usize = 9;

/// Payload offset of the 1-byte op tag (after the key).
pub const OP_TAG_OFFSET: usize = 8;

/// The tenant a request belongs to. Tenant 0 is the default tenant —
/// single-tenant runs never set anything else, and a header whose
/// (previously reserved) tenant bytes read zero parses as tenant 0, so
/// old wire images stay valid.
pub type TenantId = u16;

/// One request flowing through a transport.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Monotone request number — the wire correlation id.
    pub id: u64,
    /// Arrival time in simulated cycles (dispatcher metadata; also the
    /// base the wire deadline is computed from).
    pub arrival: Cycles,
    /// Target record key.
    pub key: u64,
    /// Whether the operation mutates the record (update/insert/RMW).
    pub write: bool,
    /// Request/reply payload bytes on the wire.
    pub payload: usize,
    /// The client that issued this request, if any (the serving loop
    /// sets none).
    pub client: Option<usize>,
    /// The tenant this request bills to (carried in the wire header).
    pub tenant: TenantId,
}

impl Request {
    /// The payload length this request occupies on the wire.
    pub fn payload_len(&self) -> usize {
        self.payload.max(WIRE_MIN)
    }

    /// The full wire image length: header plus payload.
    pub fn wire_len(&self) -> usize {
        WIRE_HEADER_LEN + self.payload_len()
    }

    /// Encodes the *payload* half as standalone wire bytes (key, op tag,
    /// zero padding up to `payload`). This is the byte string the echo
    /// service contract replies with, as tests state it; the hot path
    /// encodes the whole image once via [`Lane::encode`] instead.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = vec![0u8; self.payload_len()];
        bytes[..8].copy_from_slice(&self.key.to_le_bytes());
        bytes[OP_TAG_OFFSET] = self.write as u8;
        bytes
    }
}

/// The fixed header written at the front of the shared buffer for every
/// buffered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    /// Operation code: 0 read, 1 write.
    pub opcode: u8,
    /// Correlation id.
    pub corr: u64,
    /// Absolute deadline in cycles (0 = none).
    pub deadline: Cycles,
    /// Payload bytes following the header.
    pub len: u32,
    /// Billing tenant (bytes 2..4, previously reserved zeroes — tenant 0
    /// keeps old images parseable). The layout stays 24 bytes.
    pub tenant: TenantId,
}

impl WireHeader {
    /// Serialises the header into its fixed 24-byte image.
    pub fn write_to(&self, out: &mut [u8]) {
        out[0] = self.opcode;
        out[1] = 1; // Wire layout version.
        out[2..4].copy_from_slice(&self.tenant.to_le_bytes());
        out[4..8].copy_from_slice(&self.len.to_le_bytes());
        out[8..16].copy_from_slice(&self.corr.to_le_bytes());
        out[16..24].copy_from_slice(&self.deadline.to_le_bytes());
    }

    /// Parses a header image; `None` if the buffer is short or the
    /// version byte is unknown.
    pub fn parse(bytes: &[u8]) -> Option<WireHeader> {
        if bytes.len() < WIRE_HEADER_LEN || bytes[1] != 1 {
            return None;
        }
        Some(WireHeader {
            opcode: bytes[0],
            tenant: u16::from_le_bytes(bytes[2..4].try_into().ok()?),
            len: u32::from_le_bytes(bytes[4..8].try_into().ok()?),
            corr: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
            deadline: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
        })
    }
}

/// Counts the bytes the marshalling layer physically moves. Shared
/// (`Rc<Cell>`) so one meter can span a transport and its lanes.
#[derive(Debug, Clone, Default)]
pub struct CopyMeter(Rc<Cell<u64>>);

impl CopyMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` bytes moved.
    pub fn add(&self, n: usize) {
        self.0.set(self.0.get() + n as u64);
    }

    /// Total bytes moved since creation.
    pub fn total(&self) -> u64 {
        self.0.get()
    }
}

/// One lane's staging image of its shared buffer: the host-side bytes
/// that mirror what the simulated shared buffer (or message buffer)
/// holds. The allocation is reused across calls; encoding is the single
/// marshalling copy of the hot path, and the echo reply is served from
/// this same image in place.
#[derive(Debug, Default)]
pub struct Lane {
    buf: Vec<u8>,
    reply_len: usize,
}

impl Lane {
    /// An empty lane.
    pub fn new() -> Self {
        Lane::default()
    }

    /// Encodes `req` (header + payload) into the lane's staging buffer —
    /// the one marshalling write of the call path — and returns the
    /// complete wire image. `deadline` travels in the header (0 = none).
    pub fn encode(&mut self, req: &Request, deadline: Cycles, meter: &CopyMeter) -> &[u8] {
        let total = req.wire_len();
        self.buf.clear();
        self.buf.resize(total, 0);
        WireHeader {
            opcode: req.write as u8,
            corr: req.id,
            deadline,
            len: req.payload_len() as u32,
            tenant: req.tenant,
        }
        .write_to(&mut self.buf[..WIRE_HEADER_LEN]);
        let payload = &mut self.buf[WIRE_HEADER_LEN..];
        payload[..8].copy_from_slice(&req.key.to_le_bytes());
        payload[OP_TAG_OFFSET] = req.write as u8;
        self.reply_len = req.payload_len();
        meter.add(total);
        &self.buf
    }

    /// The full wire image of the last encoded call.
    pub fn wire(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrites the lane's reply region with explicit bytes — the
    /// non-echo path, where a handler materialised a real payload. Keeps
    /// [`Lane::reply`] a view into the lane regardless of reply kind.
    pub fn set_reply(&mut self, bytes: &[u8]) {
        let end = WIRE_HEADER_LEN + bytes.len();
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        self.buf[WIRE_HEADER_LEN..end].copy_from_slice(bytes);
        self.reply_len = bytes.len();
    }

    /// The payload half of the lane — where the echo reply lives, in the
    /// caller-visible part of the buffer.
    pub fn reply(&self) -> &[u8] {
        &self.buf[WIRE_HEADER_LEN..WIRE_HEADER_LEN + self.reply_len]
    }

    /// The correlation id currently stamped in the lane's wire header —
    /// the id the reply in this buffer answers. For an in-place echo
    /// this is the id [`Lane::encode`] wrote; a transport that routes a
    /// reply from somewhere else must restamp it, and
    /// `Transport::call` compares it against the outstanding request to
    /// refuse stale replies.
    pub fn reply_corr(&self) -> Option<u64> {
        WireHeader::parse(&self.buf).map(|h| h.corr)
    }

    /// Restamps the header's correlation id in place. The legitimate
    /// use is a transport writing back the id a routed reply belongs
    /// to; tests use it to plant a *stale* id and prove the
    /// correlation check fires instead of silently serving the wrong
    /// reply.
    pub fn set_reply_corr(&mut self, corr: u64) {
        if self.buf.len() >= WIRE_HEADER_LEN {
            self.buf[8..16].copy_from_slice(&corr.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: u64, key: u64, write: bool, payload: usize) -> Request {
        Request {
            id,
            arrival: 0,
            key,
            write,
            payload,
            client: None,
            tenant: 0,
        }
    }

    #[test]
    fn encode_pads_to_payload() {
        let r = req(0, 0xabcd, true, 128);
        let b = r.encode();
        assert_eq!(b.len(), 128);
        assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), 0xabcd);
        assert_eq!(b[OP_TAG_OFFSET], 1);
    }

    #[test]
    fn encode_enforces_wire_minimum() {
        assert_eq!(req(0, 1, false, 0).encode().len(), WIRE_MIN);
    }

    #[test]
    fn header_round_trips() {
        let h = WireHeader {
            opcode: 1,
            corr: 0xdead_beef,
            deadline: 123_456,
            len: 200,
            tenant: 0x1f2e,
        };
        let mut img = [0u8; WIRE_HEADER_LEN];
        h.write_to(&mut img);
        assert_eq!(WireHeader::parse(&img), Some(h));
        assert_eq!(WireHeader::parse(&img[..10]), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes never panic the parser: a short image or an
        /// unknown version byte is refused, and an accepted image
        /// re-serialises to exactly its first 24 bytes.
        #[test]
        fn parse_takes_arbitrary_bytes(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..2 * WIRE_HEADER_LEN),
            stamp_version in any::<bool>(),
        ) {
            // Half the cases carry version 1, so accepted images are common.
            if stamp_version && bytes.len() > 1 {
                bytes[1] = 1;
            }
            let accepted = (bytes.len() >= WIRE_HEADER_LEN && bytes[1] == 1)
                .then(|| bytes[..WIRE_HEADER_LEN].to_vec());
            let reserialised = WireHeader::parse(&bytes).map(|h| {
                let mut img = [0u8; WIRE_HEADER_LEN];
                h.write_to(&mut img);
                img.to_vec()
            });
            prop_assert_eq!(reserialised, accepted);
        }
    }

    #[test]
    fn legacy_zeroed_tenant_bytes_parse_as_tenant_zero() {
        // Pre-tenant images wrote zeroes into bytes 2..4; they must keep
        // parsing, as the default tenant.
        let h = WireHeader {
            opcode: 0,
            corr: 7,
            deadline: 0,
            len: 16,
            tenant: 0,
        };
        let mut img = [0u8; WIRE_HEADER_LEN];
        h.write_to(&mut img);
        assert_eq!(img[2], 0);
        assert_eq!(img[3], 0);
        assert_eq!(WireHeader::parse(&img).unwrap().tenant, 0);
    }

    #[test]
    fn lane_encode_carries_the_tenant_on_the_wire() {
        let meter = CopyMeter::new();
        let mut lane = Lane::new();
        let mut r = req(3, 9, false, 32);
        r.tenant = 4711;
        lane.encode(&r, 0, &meter);
        assert_eq!(WireHeader::parse(lane.wire()).unwrap().tenant, 4711);
    }

    #[test]
    fn lane_encodes_once_and_serves_reply_in_place() {
        let meter = CopyMeter::new();
        let mut lane = Lane::new();
        let r = req(7, 0x5b, true, 64);
        let wire = lane.encode(&r, 99, &meter).to_vec();
        assert_eq!(wire.len(), WIRE_HEADER_LEN + 64);
        let h = WireHeader::parse(&wire).unwrap();
        assert_eq!((h.corr, h.opcode, h.deadline, h.len), (7, 1, 99, 64));
        // The reply view is the payload half, byte-identical to the
        // standalone encoding — the echo served in place.
        assert_eq!(lane.reply(), r.encode());
        assert_eq!(meter.total(), wire.len() as u64);
        // Re-encoding reuses the allocation and re-meters.
        lane.encode(&req(8, 1, false, 16), 0, &meter);
        assert_eq!(lane.reply().len(), 16);
        assert_eq!(
            meter.total(),
            wire.len() as u64 + WIRE_HEADER_LEN as u64 + 16
        );
    }

    #[test]
    fn reply_corr_tracks_the_header_and_restamps() {
        let meter = CopyMeter::new();
        let mut lane = Lane::new();
        assert_eq!(lane.reply_corr(), None, "an empty lane has no header");
        lane.encode(&req(42, 1, false, 32), 0, &meter);
        assert_eq!(lane.reply_corr(), Some(42));
        lane.set_reply_corr(41);
        assert_eq!(lane.reply_corr(), Some(41), "a stale id is visible");
        // set_reply leaves the header alone — the echo contract keeps
        // the encoded id, a routed reply must restamp explicitly.
        lane.set_reply(&[0u8; 32]);
        assert_eq!(lane.reply_corr(), Some(41));
    }
}
