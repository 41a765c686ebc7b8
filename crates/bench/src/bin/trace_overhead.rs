//! The tracing tax: host ns per call with tracing absent, attached but
//! disabled, and fully enabled — plus the phase-attribution consistency
//! check (the software Figure 7 must decompose end-to-end cycles).
//!
//! Three modes per kernel-backed transport, all measured on the same
//! transport instance (separate instances differ by several percent
//! from allocation layout alone) by swapping the attached recorder:
//!
//! * `baseline` — the constructor-default off recorder (the state every
//!   transport is born with).
//! * `disabled` — a [`Recorder::off`] attached explicitly to every
//!   hook: each emit is one flag read, which must cost (statistically)
//!   nothing, and the attach itself must be free.
//! * `enabled` — a live recorder capturing every span of every call,
//!   with the cycle sampler enabled, so the tax gate bounds the whole
//!   always-on observability stack (spans + sampling).
//!
//! Each mode runs `SB_REPS` timed repetitions, interleaved and with the
//! order alternating every round so slow host drift cancels, keeping
//! the fastest (min-of-N filters scheduler noise); a gate breach earns
//! one full re-measurement pass with the minima carried over, so a
//! one-off host spike can't fail CI but a real regression still does.
//! Gates, all CI-enforced:
//!
//! 1. `disabled` within [`DISABLED_TAX_BUDGET_NS`] host ns per call of
//!    `baseline` — attached-but-off is free;
//! 2. `(enabled − disabled) ÷ events recorded per call` within
//!    [`EVENT_TAX_BUDGET_NS`] — the always-on tax is bounded. The tax is
//!    a constant per recorded event, not a share of the call: stated as a
//!    percentage it grew every time the simulator under it got faster,
//!    and the gate tripped on a cheaper call with an unchanged tracer;
//! 3. the in-call phase self-times decompose end-to-end cycles within
//!    5% (they are equal by construction; the gate catches regressions
//!    in the emit sites, e.g. a dropped or double-counted span);
//! 4. the quiescent profiled capture loses nothing: zero ring
//!    overwrites, zero dropped/poisoned samples, zero export
//!    truncation;
//! 5. the Chrome trace export of the profiled run is valid JSON.
//!
//! Results go to `results/trace_overhead.json`, including the per-phase
//! cycle breakdown and a PMU metrics snapshot through the registry.
//!
//! Knobs: `SB_CALLS` (timed calls per rep, default 4,000), `SB_REPS`
//! (repetitions per mode, default 7), `SB_RING` (enabled-mode ring
//! capacity in events, default [`sb_observe::DEFAULT_RING_CAPACITY`]).

use std::hint::black_box;
use std::time::Instant;

use sb_bench::{
    knob, print_table,
    report::{snapshot_json, write_json, Json},
};
use sb_microkernel::Personality;
use sb_observe::{
    attribute, chrome_trace, validate_json, Recorder, Registry, SamplerConfig, SpanKind,
};
use sb_runtime::{RequestFactory, ServiceSpec, SkyBridgeTransport, Transport, TrapIpcTransport};
use sb_ycsb::WorkloadSpec;

/// Budget on the enabled tax, in host ns per recorded event. An emit is
/// a flag read, a 24-byte ring write and the sampler's two compares:
/// 8–14 ns measured. 25 ns absorbs the host noise on a difference of two
/// minima and still fails an emit that got twice as dear.
const EVENT_TAX_BUDGET_NS: f64 = 25.0;
/// Budget on an attached-but-off recorder, in host ns per call over the
/// baseline. Each emit is then one flag read (about a nanosecond, a
/// dozen times a call at most); 40 ns is what min-of-N still jitters by
/// on a 1–4 µs call.
const DISABLED_TAX_BUDGET_NS: f64 = 40.0;
/// Tolerance on the phase-decomposition identity.
const PHASE_TOLERANCE: f64 = 0.05;

fn factory() -> RequestFactory {
    RequestFactory::new(WorkloadSpec::ycsb_a(10_000, 64), 64)
}

/// One timed repetition: `calls` requests through lane 0, returning
/// host ns per call.
fn rep(t: &mut dyn Transport, calls: u64) -> f64 {
    let mut f = factory();
    let wall = Instant::now();
    for _ in 0..calls {
        let r = f.make(t.now(0), None);
        t.call(0, &r).expect("call");
        black_box(t.reply(0));
    }
    wall.elapsed().as_nanos() as f64 / calls as f64
}

/// Warm-up: populate caches, TLBs and lane allocations.
fn warm(t: &mut dyn Transport) {
    let mut f = factory();
    for _ in 0..256 {
        let r = f.make(t.now(0), None);
        t.call(0, &r).expect("warm call");
    }
}

struct TransportResult {
    name: &'static str,
    baseline_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
    /// Events the live recorder took per timed call.
    events_per_call: f64,
    /// `disabled − baseline`, host ns per call.
    disabled_tax_ns: f64,
    /// `(enabled − disabled) ÷ events per call`, host ns per event.
    event_tax_ns: f64,
    phases: Json,
    phase_ratio: f64,
    trace_events: u64,
    trace_valid: bool,
    samples_taken: u64,
    failures: Vec<String>,
}

fn build(name: &str, spec: &ServiceSpec) -> Box<dyn Transport> {
    match name {
        "skybridge" => Box::new(SkyBridgeTransport::new(1, spec)),
        _ => Box::new(TrapIpcTransport::new(Personality::sel4(), 1, spec)),
    }
}

fn run_transport(name: &'static str, calls: u64, reps: u64) -> TransportResult {
    let spec = ServiceSpec::default();
    let mut failures = Vec::new();

    // All three modes run on ONE transport instance, swapping only the
    // attached recorder between repetitions: separate instances differ
    // by several percent from allocation layout alone, which would
    // drown the quantity under test. `baseline` is a transport whose
    // recorder is the constructor-default off handle, `disabled` an
    // explicitly attached off recorder (the attach must be free), and
    // `enabled` the live ring. Repetitions interleave with the order
    // alternating every round so slow host drift cancels; min-of-N
    // filters the jitter on top.
    let recorder = Recorder::new(knob("SB_RING", sb_observe::DEFAULT_RING_CAPACITY));
    // The enabled mode carries the cycle sampler too, so the per-event
    // tax gate bounds spans *and* sampling together — the full always-on
    // observability cost, not just the event writes. `SB_SAMPLE=0`
    // isolates the span-only tax when attributing a breach.
    if knob("SB_SAMPLE", 1) != 0 {
        recorder.enable_sampling(SamplerConfig {
            backend: name.to_string(),
            ..SamplerConfig::default()
        });
    }
    let modes: [Recorder; 3] = [Recorder::off(), Recorder::off(), recorder.clone()];
    let mut t = build(name, &spec);
    warm(t.as_mut());
    // Min-of-N only ever over-reports a cost (noise inflates a minimum,
    // never deflates it), so on a gate breach re-measurement passes are
    // sound: the minima carry across passes and a genuine regression
    // fails every pass, while a scheduler spike that inflated one
    // mode's minimum washes out. Three retry passes keep the gate
    // honest on busy shared hosts where a single re-run still lands
    // inside the same noise window.
    let mut ns = [f64::INFINITY; 3];
    let mut events_per_call = 0.0;
    let (mut disabled_tax_ns, mut event_tax_ns) = (0.0, 0.0);
    for pass in 0..4 {
        for i in 0..reps {
            for j in 0..3usize {
                let m = if i % 2 == 0 { j } else { 2 - j };
                t.attach_recorder(modes[m].clone());
                let recorded = recorder.recorded();
                ns[m] = ns[m].min(rep(t.as_mut(), calls));
                if m == 2 {
                    events_per_call = (recorder.recorded() - recorded) as f64 / calls as f64;
                }
            }
        }
        disabled_tax_ns = ns[1] - ns[0];
        event_tax_ns = (ns[2] - ns[1]) / events_per_call;
        if disabled_tax_ns <= DISABLED_TAX_BUDGET_NS && event_tax_ns <= EVENT_TAX_BUDGET_NS {
            break;
        }
        if pass < 3 {
            eprintln!(
                "note: {name}: gate breached on pass {}, re-measuring",
                pass + 1
            );
        }
    }
    let [baseline_ns, disabled_ns, enabled_ns] = ns;
    t.attach_recorder(recorder.clone());

    if disabled_tax_ns > DISABLED_TAX_BUDGET_NS {
        failures.push(format!(
            "{name}: disabled recorder costs {disabled_ns:.0} ns/call vs {baseline_ns:.0} baseline \
             (budget {DISABLED_TAX_BUDGET_NS:.0} ns/call)"
        ));
    }
    if event_tax_ns > EVENT_TAX_BUDGET_NS {
        failures.push(format!(
            "{name}: enabled tracing costs {enabled_ns:.0} ns/call vs {disabled_ns:.0} disabled: \
             {event_tax_ns:.1} ns per event at {events_per_call:.1} events/call \
             (budget {EVENT_TAX_BUDGET_NS:.0} ns/event)"
        ));
    }

    // Phase attribution on a fresh, non-wrapping capture: the timed loop
    // overwrote the ring many times over, so profile a short run the
    // ring holds completely (a call emits at most ~12 events).
    recorder.clear();
    let profiled = (recorder.capacity() / 16).clamp(32, 512) as u64;
    let mut f = factory();
    for _ in 0..profiled {
        let r = f.make(t.now(0), None);
        t.call(0, &r).expect("profiled call");
    }
    let by_lane: Vec<_> = (0..recorder.lane_count())
        .map(|l| recorder.events(l))
        .collect();
    let prof = attribute(&by_lane);
    let phase_ratio = if prof.end_to_end == 0 {
        0.0
    } else {
        prof.in_call_total() as f64 / prof.end_to_end as f64
    };
    if (phase_ratio - 1.0).abs() > PHASE_TOLERANCE {
        failures.push(format!(
            "{name}: phase self-times cover {:.1}% of end-to-end cycles",
            phase_ratio * 100.0
        ));
    }
    if prof.unmatched > 0 || prof.unclosed > 0 {
        failures.push(format!(
            "{name}: malformed span stream ({} unmatched, {} unclosed)",
            prof.unmatched, prof.unclosed
        ));
    }

    // A quiescent cell — a capture sized to fit its rings — must lose
    // nothing: zero ring overwrites, zero sample drops, zero poisoned
    // or desynced sampler stacks, zero export truncation. Any loss here
    // is an accounting bug, not pressure.
    let sstats = recorder.sample_stats();
    if recorder.dropped() > 0 {
        failures.push(format!(
            "{name}: quiescent capture overwrote {} events",
            recorder.dropped()
        ));
    }
    if sstats.dropped > 0 || sstats.poisoned > 0 || sstats.broken_events > 0 {
        failures.push(format!(
            "{name}: quiescent sampler lost samples ({} dropped, {} poisoned, {} broken events)",
            sstats.dropped, sstats.poisoned, sstats.broken_events
        ));
    }

    let trace = chrome_trace(&recorder);
    let trace_valid = validate_json(&trace.json).is_ok() && !trace.truncated;
    if !trace_valid {
        failures.push(format!(
            "{name}: chrome trace export invalid or truncated ({} dropped)",
            trace.dropped
        ));
    }

    let mut phases = Vec::new();
    for kind in SpanKind::ALL {
        let cycles = prof.get(kind);
        if cycles > 0 {
            phases.push(
                Json::obj()
                    .field("phase", kind.name())
                    .field("cycles_per_call", prof.per_call(kind)),
            );
        }
    }
    let phases = Json::obj()
        .field("calls", prof.calls)
        .field(
            "end_to_end_cycles_per_call",
            prof.end_to_end as f64 / prof.calls.max(1) as f64,
        )
        .field("breakdown", Json::Arr(phases));

    TransportResult {
        name,
        baseline_ns,
        disabled_ns,
        enabled_ns,
        events_per_call,
        disabled_tax_ns,
        event_tax_ns,
        phases,
        phase_ratio,
        trace_events: trace.events,
        trace_valid,
        samples_taken: sstats.taken,
        failures,
    }
}

fn main() {
    let calls = knob("SB_CALLS", 4_000) as u64;
    let reps = knob("SB_REPS", 7) as u64;

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for name in ["skybridge", "sel4-trap"] {
        let r = run_transport(name, calls, reps);
        rows.push(vec![
            r.name.to_string(),
            format!("{:.0}", r.baseline_ns),
            format!("{:.0}", r.disabled_ns),
            format!("{:.0}", r.enabled_ns),
            format!("{:.1}", r.events_per_call),
            format!("{:.1}", r.event_tax_ns),
            format!("{:.1}%", r.phase_ratio * 100.0),
        ]);
        json_rows.push(
            Json::obj()
                .field("transport", r.name)
                .field("calls", calls)
                .field("reps", reps)
                .field("baseline_ns_per_call", r.baseline_ns)
                .field("disabled_ns_per_call", r.disabled_ns)
                .field("enabled_ns_per_call", r.enabled_ns)
                .field("events_per_call", r.events_per_call)
                .field("event_tax_ns", r.event_tax_ns)
                .field("disabled_tax_ns", r.disabled_tax_ns)
                .field("phase_sum_over_end_to_end", r.phase_ratio)
                .field("trace_events", r.trace_events)
                .field("trace_valid_json", r.trace_valid)
                .field("samples_taken", r.samples_taken)
                .field("profile", r.phases),
        );
        failures.extend(r.failures);
    }
    print_table(
        &format!("tracing tax ({calls} calls/rep, best of {reps})"),
        &[
            "transport",
            "baseline ns",
            "disabled ns",
            "enabled ns",
            "events/call",
            "ns/event",
            "phase cover",
        ],
        &rows,
    );

    // The metrics side of the exporter story: surface the simulated
    // PMU of one traced SkyBridge run through the registry.
    let spec = ServiceSpec::default();
    let mut sky = SkyBridgeTransport::new(1, &spec);
    let pmu_rec = Recorder::new(1 << 14);
    pmu_rec.enable_sampling(SamplerConfig {
        backend: "skybridge".to_string(),
        ..SamplerConfig::default()
    });
    sky.attach_recorder(pmu_rec.clone());
    let mut f = factory();
    let mut reg = Registry::new();
    let before = {
        reg.record_pmu("cpu0", &sky.k.machine.cpu(0).pmu);
        reg.snapshot()
    };
    for _ in 0..256 {
        let r = f.make(sky.now(0), None);
        sky.call(0, &r).expect("pmu run call");
    }
    reg.record_pmu("cpu0", &sky.k.machine.cpu(0).pmu);
    // Fold the trace-completeness ledger into the same snapshot: ring
    // and sampler loss counters plus the exporter's truncation flag,
    // so the results file carries a `trace_loss` section.
    reg.record_trace_loss(&pmu_rec);
    reg.record_export(&chrome_trace(&pmu_rec));
    let pmu = reg.snapshot().diff(&before);

    let doc = Json::obj()
        .field("bench", "trace_overhead")
        .field("event_tax_budget_ns", EVENT_TAX_BUDGET_NS)
        .field("disabled_tax_budget_ns", DISABLED_TAX_BUDGET_NS)
        .field("phase_tolerance", PHASE_TOLERANCE)
        .field("rows", Json::Arr(json_rows))
        .field("pmu_delta", snapshot_json(&pmu));
    match write_json("trace_overhead", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("tracing tax within budget; phases decompose end-to-end; exports valid");
}
