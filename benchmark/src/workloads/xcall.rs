//! `xcall_sky` / `xcall_trap`: a closed loop of synchronous calls on
//! one lane — one client, the next request issued when the previous
//! reply is back — over YCSB-A keys with a 64-byte payload.

use std::time::Instant;

use sb_microkernel::Personality as Kernel;
use sb_observe::{attribute, Recorder, SpanKind};
use sb_runtime::{RequestFactory, ServiceSpec, SkyBridgeTransport, TrapIpcTransport};
use sb_transport::{Request, Transport};
use sb_ycsb::WorkloadSpec;

use super::{Check, Prepared, Segment, SimFigures, Size};
use crate::host::{ChunkClock, CycleHist, Digest};
use crate::timed::{Timed, Trace};

/// Wire payload bytes per call.
pub const PAYLOAD: usize = 64;
/// Warm-up calls before the first timed one.
const WARMUP: u64 = 1024;
/// Calls profiled with the repository's recorder attached, after the
/// measured loop of a traced run.
const PROFILED: u64 = 2048;

/// Which crossing the loop exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Personality {
    /// `direct_server_call` over VMFUNC.
    Sky,
    /// seL4 kernel IPC (fastpath, same core, KPTI on).
    Trap,
}

impl Personality {
    fn other(self) -> Self {
        match self {
            Personality::Sky => Personality::Trap,
            Personality::Trap => Personality::Sky,
        }
    }

    fn build(self) -> Box<dyn Transport> {
        let spec = ServiceSpec::default();
        match self {
            Personality::Sky => Box::new(SkyBridgeTransport::new(1, &spec)),
            Personality::Trap => Box::new(TrapIpcTransport::new(Kernel::sel4(), 1, &spec)),
        }
    }
}

/// The seeded request stream: YCSB-A over the default 10,000 records.
pub fn factory(seed: u64) -> RequestFactory {
    let spec = ServiceSpec::default();
    RequestFactory::new(
        WorkloadSpec {
            seed,
            ..WorkloadSpec::ycsb_a(spec.records, PAYLOAD)
        },
        PAYLOAD,
    )
}

/// The bytes the echo contract replies with, without allocating.
fn expected_reply(r: &Request) -> [u8; PAYLOAD] {
    let mut b = [0u8; PAYLOAD];
    b[..8].copy_from_slice(&r.key.to_le_bytes());
    b[sb_transport::OP_TAG_OFFSET] = r.write as u8;
    b
}

struct Xcall<T> {
    t: T,
    personality: Personality,
    seed: u64,
    trace: Option<Trace>,
}

/// Boots the personality, registers server and client, and warms the
/// simulated caches and TLBs with calls from a stream the measured run
/// does not reuse.
pub fn setup(p: Personality, seed: u64, trace: Option<&Trace>) -> Box<dyn Prepared> {
    fn warmed<T: Transport + 'static>(
        mut t: T,
        personality: Personality,
        seed: u64,
        trace: Option<&Trace>,
    ) -> Box<dyn Prepared> {
        let mut f = factory(seed ^ 0x5741_524d);
        for _ in 0..WARMUP {
            let r = f.make(t.now(0), None);
            t.call(0, &r).expect("warm-up call");
        }
        Box::new(Xcall {
            t,
            personality,
            seed,
            trace: trace.cloned(),
        })
    }
    match trace {
        None => warmed(p.build(), p, seed, None),
        Some(tr) => warmed(
            Timed::new(p.build(), tr, "transport.call", "sb-transport"),
            p,
            seed,
            trace,
        ),
    }
}

/// Digest of the first `n` replies of `seed`'s stream on a fresh
/// transport of personality `p`.
fn prefix_digest(p: Personality, seed: u64, n: u64) -> Digest {
    let mut t = p.build();
    let mut f = factory(seed);
    let mut d = Digest::default();
    for _ in 0..n {
        let r = f.make(t.now(0), None);
        t.call(0, &r).expect("cross-check call");
        d.bytes(t.reply(0));
    }
    d
}

impl<T: Transport> Prepared for Xcall<T> {
    fn run(self: Box<Self>, size: Size) -> Segment {
        let Xcall {
            mut t,
            personality,
            seed,
            trace,
        } = *self;
        let chunk_span = trace.as_ref().map(|tr| tr.name("bench.chunk", "benchmark"));
        let mut f = factory(seed);
        let mut hist = CycleHist::new();
        let mut digest = Digest::default();
        let mut input_digest = Digest::default();
        let mut first_chunk_digest = Digest::default();
        let mut clock = ChunkClock::new(trace.as_ref());
        let mut failed = 0u64;
        let mut last = None;
        if let Some(tr) = &trace {
            tr.start();
        }
        let pmu0 = t.pmu();
        let clock0 = t.now(0);
        let run = Instant::now();
        for c in 0..size.chunks() {
            clock.boundary(size.chunk);
            if let (Some(tr), Some(name)) = (&trace, chunk_span) {
                tr.open(name, c);
            }
            for _ in 0..size.chunk {
                let c0 = t.now(0);
                let r = f.make(c0, None);
                input_digest.word(r.key ^ ((r.write as u64) << 63));
                match t.call(0, &r) {
                    Ok(_) => digest.bytes(t.reply(0)),
                    Err(_) => failed += 1,
                }
                hist.record(t.now(0) - c0);
                last = Some(r);
            }
            if let Some(tr) = &trace {
                tr.close(0);
            }
            if c == 0 {
                first_chunk_digest = digest;
            }
        }
        clock.boundary(size.chunk);
        let wall_ns = run.elapsed().as_nanos() as u64;
        let cycles = t.now(0) - clock0;
        let pmu1 = t.pmu();
        if let Some(tr) = &trace {
            tr.stop();
        }

        let mut checks = Vec::new();
        // The echo contract, recomputed from the seed alone.
        let mut g = factory(seed);
        let mut expected = Digest::default();
        for _ in 0..size.ops {
            expected.bytes(&expected_reply(&g.make(0, None)));
        }
        checks.push(Check::eq(
            "every reply is the request's wire payload",
            digest.0,
            expected.0,
        ));
        if let Some(r) = &last {
            checks.push(Check::new(
                "last reply equals Request::encode",
                t.reply(0) == r.encode().as_slice(),
                format!("request {}", r.id),
            ));
        }
        checks.push(Check::eq("no call returned an error", failed, 0));
        checks.push(Check::eq(
            "first-chunk replies byte-identical on the other personality",
            first_chunk_digest.0,
            prefix_digest(personality.other(), seed, size.chunk).0,
        ));

        let mut layer = Vec::new();
        if let Some(tr) = &trace {
            let ops = size.ops as f64;
            layer.push((
                "transport.call_self.host_ns",
                tr.get("transport.call").self_ns as f64 / ops,
            ));
            if let (Some(a), Some(b)) = (pmu0, pmu1) {
                let d = b.delta(&a);
                for (name, v) in [
                    ("pmu.l1i_misses_per_op", d.l1i_misses),
                    ("pmu.l1d_misses_per_op", d.l1d_misses),
                    ("pmu.l2_misses_per_op", d.l2_misses),
                    ("pmu.l3_misses_per_op", d.l3_misses),
                    ("pmu.itlb_misses_per_op", d.itlb_misses),
                    ("pmu.dtlb_misses_per_op", d.dtlb_misses),
                    ("pmu.page_walks_per_op", d.page_walks),
                    ("pmu.walk_mem_accesses_per_op", d.walk_memory_accesses),
                    ("pmu.vmfuncs_per_op", d.vmfuncs),
                    ("pmu.cr3_writes_per_op", d.cr3_writes),
                    ("pmu.mode_switches_per_op", d.mode_switches),
                    ("pmu.wrpkru_writes_per_op", d.wrpkru_writes),
                ] {
                    layer.push((name, v as f64 / ops));
                }
            }
            // Phase self-cycles: the repository's own recorder, attached
            // only now so the measured loop above ran without it. The
            // ring holds every event of the profiled calls.
            let recorder = Recorder::new(PROFILED as usize * 16);
            t.attach_recorder(recorder.clone());
            for _ in 0..PROFILED {
                let r = f.make(t.now(0), None);
                t.call(0, &r).expect("profiled call");
            }
            t.attach_recorder(Recorder::off());
            let by_lane: Vec<_> = (0..recorder.lane_count())
                .map(|l| recorder.events(l))
                .collect();
            let prof = attribute(&by_lane);
            for (name, kind) in [
                ("phase.trampoline.cycles", SpanKind::Trampoline),
                ("phase.switch.cycles", SpanKind::Switch),
                ("phase.marshal.cycles", SpanKind::Marshal),
                ("phase.kernel_ipc.cycles", SpanKind::KernelIpc),
                ("phase.handler.cycles", SpanKind::Handler),
            ] {
                layer.push((name, prof.per_call(kind)));
            }
            layer.push(("observe.events_dropped", recorder.dropped() as f64));
            let per_call = prof.in_call_total() as f64 / prof.calls.max(1) as f64;
            let e2e = cycles as f64 / ops;
            checks.push(Check::new(
                "phase self-cycles sum to sim_cycles_per_op within 5%",
                (per_call / e2e - 1.0).abs() <= 0.05,
                format!("{per_call:.1} vs {e2e:.1}"),
            ));
        }

        Segment {
            attempted: size.ops,
            failed,
            chunk_ns: clock.ns,
            unit_ns: clock.unit_ns,
            wall_ns,
            sim: SimFigures {
                cycles_per_op: cycles as f64 / size.ops as f64,
                p50: hist.percentile(50.0),
                p99: hist.percentile(99.0),
                served_share: (size.ops - failed) as f64 / size.ops as f64,
            },
            digest,
            input_digest,
            checks,
            layer,
        }
    }
}
