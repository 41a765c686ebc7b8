//! The exact profile's evaluation harness: five-way flamegraphs in
//! cycles and profile-diff regression attribution.
//!
//! One serving lane per IPC personality runs the KV workload with span
//! tracing on, harvested in chunks the event ring holds completely, so
//! the exact [`PhaseProfile`] loses nothing no matter how long the run.
//! Per personality the bin then:
//!
//! 1. checks the capture was exact (zero ring overwrites, and a span
//!    stream with nothing unmatched or unclosed, which also proves the
//!    per-tenant folds sum to the whole);
//! 2. writes a collapsed-stack flamegraph in cycles
//!    (`results/flamegraphs/<backend>.collapsed`, the format
//!    `flamegraph.pl` and speedscope ingest) plus a per-tenant variant
//!    with the tenant as the root frame;
//! 3. diffs the per-phase cycle budget against the committed
//!    `results/profile.json` in dual units — Δ cycles/call and relative
//!    percent (ns at the modeled 4 GHz are cycles/4) — attributes any
//!    end-to-end movement to named phases, and then rewrites that file
//!    from this run: the committed profile is its own baseline.
//!
//! The diff gate is the regression-attribution contract: an end-to-end
//! regression beyond 1% whose residual (the part no named phase
//! explains) exceeds 5% of the baseline breaches it. A regression that
//! *is* attributed still prints its per-phase account but is not this
//! bin's to judge; an unattributed one means the instrumentation lost
//! track of where cycles went, which is a bug in its own right. A run
//! without a baseline to diff against, or with one that does not parse,
//! breaches the gate — and still writes the file, so the next run has
//! one. A re-baseline is a run whose new `profile.json` gets committed.
//!
//! No knob: [`CALLS`] per personality is the size the file records.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use sb_bench::gate::{finish, Gate};
use sb_bench::print_table;
use sb_bench::report::{write_raw, RESULTS_DIR};
use sb_observe::{
    attribute_by_corr, Json, PhaseProfile, Recorder, SpanKind, DEFAULT_RING_CAPACITY,
};
use sb_runtime::{RequestFactory, Transport};
use sb_ycsb::WorkloadSpec;
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};

/// End-to-end movement below this fraction of the baseline is noise.
const REGRESSION_GATE: f64 = 0.01;
/// Largest unattributed share of a regression the gate tolerates.
const RESIDUAL_GATE: f64 = 0.05;
/// The modeled part runs at 4 GHz: ns = cycles / 4.
const CYCLES_PER_NS: f64 = 4.0;
/// Tenants in the profiled mix (Zipf-skewed, like the tenant bench).
const TENANTS: u16 = 4;
/// Timed calls per personality.
const CALLS: u64 = 65_536;

struct BackendProfile {
    label: String,
    prof: PhaseProfile,
    /// The same cycles, split by the tenant each request billed.
    tenants: BTreeMap<u16, PhaseProfile>,
}

impl BackendProfile {
    fn e2e_per_call(&self) -> f64 {
        self.prof.end_to_end as f64 / self.prof.calls.max(1) as f64
    }
}

/// Profiles one personality exactly: chunked harvests sized so the
/// event ring cannot wrap between drains. Each chunk is folded per
/// tenant — every span of a call carries its request's id, and the bin
/// knows which tenant each id billed — and the parts merge to the whole.
fn profile_backend(backend: &Backend, calls: u64) -> Result<BackendProfile, String> {
    let label = backend.label().to_string();
    let mut t = build_backend(ServingScenario::Kv, backend, 1);
    let recorder = Recorder::new(DEFAULT_RING_CAPACITY);
    t.attach_recorder(recorder.clone());

    let mut f = RequestFactory::with_zipf_tenants(WorkloadSpec::ycsb_a(10_000, 64), 64, TENANTS, 7);
    for _ in 0..256 {
        let r = f.make(t.now(0), None);
        t.call(0, &r)
            .map_err(|e| format!("{label}: warm call: {e:?}"))?;
    }
    recorder.clear();

    // A call emits at most ~12 events; a chunk of capacity/16 calls
    // keeps the ring under capacity with margin to spare.
    let chunk = (recorder.capacity() / 16).max(1) as u64;
    let mut prof = PhaseProfile::default();
    let mut tenants: BTreeMap<u16, PhaseProfile> = BTreeMap::new();
    let mut billed: HashMap<u64, u16> = HashMap::new();
    let mut done = 0u64;
    while done < calls {
        let n = chunk.min(calls - done);
        billed.clear();
        for _ in 0..n {
            let r = f.make(t.now(0), None);
            billed.insert(r.id, r.tenant);
            t.call(0, &r).map_err(|e| format!("{label}: call: {e:?}"))?;
        }
        done += n;
        let by_lane = recorder.take_lane_events();
        for (tenant, part) in attribute_by_corr(&by_lane, |corr| billed.get(&corr).copied()) {
            let tenant =
                tenant.ok_or_else(|| format!("{label}: a span carries no request's id"))?;
            prof.merge(&part);
            tenants.entry(tenant).or_default().merge(&part);
        }
    }

    // The capture must be exact: this bin sizes its chunks so any loss
    // is an accounting bug, not pressure. A span torn across two
    // requests' events would also show here, as unmatched and unclosed:
    // with none, the tenant parts are the whole, split.
    if recorder.dropped() > 0 {
        return Err(format!(
            "{label}: chunked capture overwrote {} events",
            recorder.dropped()
        ));
    }
    if prof.unmatched > 0 || prof.unclosed > 0 {
        return Err(format!(
            "{label}: malformed span stream ({} unmatched, {} unclosed)",
            prof.unmatched, prof.unclosed
        ));
    }
    Ok(BackendProfile {
        label,
        prof,
        tenants,
    })
}

/// One JSON row per personality: `"transport":"<label>"`, then
/// `e2e_cycles_per_call` and one `phase_<name>_cycles_per_call` per
/// observed phase — what [`diff_backend`] reads back from the committed
/// file on the next run.
fn profile_row(p: &BackendProfile) -> Json {
    let mut row = Json::obj()
        .field("transport", p.label.as_str())
        .field("calls", p.prof.calls)
        .field("e2e_cycles_per_call", p.e2e_per_call());
    for kind in SpanKind::ALL {
        if p.prof.get(kind) > 0 {
            row = row.field(
                &format!("phase_{}_cycles_per_call", kind.name()),
                p.prof.per_call(kind),
            );
        }
    }
    row
}

/// One phase's movement against the baseline, in dual units.
struct PhaseDelta {
    name: &'static str,
    cycles: f64,
    pct: Option<f64>,
}

impl PhaseDelta {
    fn render(&self) -> String {
        match self.pct {
            Some(p) => format!("`{}` {:+.1}%", self.name, p),
            None => format!("`{}` new ({:+.1} cyc)", self.name, self.cycles),
        }
    }
}

struct BackendDiff {
    label: String,
    base_e2e: f64,
    cur_e2e: f64,
    deltas: Vec<PhaseDelta>,
    /// End-to-end movement no named phase explains.
    residual: f64,
    unattributed_regression: bool,
}

/// Diffs one personality's profile against its row of the baseline
/// document's `rows`; `None` without one.
fn diff_backend(baseline: &Json, p: &BackendProfile) -> Option<BackendDiff> {
    let row = baseline
        .get("rows")?
        .as_array()?
        .iter()
        .find(|r| r.get("transport").and_then(Json::as_str) == Some(p.label.as_str()))?;
    let recorded = |field: &str| row.get(field).and_then(Json::as_f64);
    let base_e2e = recorded("e2e_cycles_per_call")?;
    let cur_e2e = p.e2e_per_call();
    let d_e2e = cur_e2e - base_e2e;
    let mut deltas = Vec::new();
    let mut attributed = 0.0;
    for kind in SpanKind::ALL {
        let field = format!("phase_{}_cycles_per_call", kind.name());
        let base = recorded(&field);
        let cur = if p.prof.get(kind) > 0 {
            Some(p.prof.per_call(kind))
        } else {
            None
        };
        let (b, c) = match (base, cur) {
            (None, None) => continue,
            (b, c) => (b.unwrap_or(0.0), c.unwrap_or(0.0)),
        };
        let d = c - b;
        // Wait phases overlap service and the doorbell is outside the
        // call: only in-call self-times add up to end-to-end.
        if !matches!(
            kind,
            SpanKind::QueueWait | SpanKind::Backoff | SpanKind::RingWait | SpanKind::Doorbell
        ) {
            attributed += d;
        }
        if d.abs() > 1e-9 {
            deltas.push(PhaseDelta {
                name: kind.name(),
                cycles: d,
                pct: (b > 0.0).then(|| (c / b - 1.0) * 100.0),
            });
        }
    }
    let residual = d_e2e - attributed;
    let unattributed_regression =
        d_e2e > base_e2e * REGRESSION_GATE && residual.abs() > base_e2e * RESIDUAL_GATE;
    Some(BackendDiff {
        label: p.label.clone(),
        base_e2e,
        cur_e2e,
        deltas,
        residual,
        unattributed_regression,
    })
}

fn main() {
    // The committed profile is the baseline: read it before this run
    // rewrites it. One that is missing or does not parse leaves every row
    // without its baseline row, which breaches a gate below.
    let path = Path::new(RESULTS_DIR).join("profile.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            Json::Null
        });

    let mut gates = Vec::new();

    let mut profiles = Vec::new();
    let mut inexact = 0u64;
    for backend in Backend::all() {
        match profile_backend(&backend, CALLS) {
            Ok(p) => profiles.push(p),
            Err(e) => {
                eprintln!("{e}");
                inexact += 1;
            }
        }
    }
    gates.push(Gate::none(
        "lossy captures or tenant folds off the whole",
        inexact,
        "personalities",
    ));

    // The flamegraphs: one collapsed-stack file per personality, plus a
    // per-tenant variant rooted at the tenant.
    for p in &profiles {
        gates.push(Gate::written(write_raw(
            &format!("flamegraphs/{}.collapsed", p.label),
            &p.prof.collapsed(&p.label),
        )));
        let tenants: String = p
            .tenants
            .iter()
            .map(|(tenant, prof)| prof.collapsed(&format!("tenant{tenant};{}", p.label)))
            .collect();
        gates.push(Gate::written(write_raw(
            &format!("flamegraphs/{}.tenants.collapsed", p.label),
            &tenants,
        )));
    }

    let (mut undiffed, mut unattributed) = (0u64, 0u64);
    let mut diff_table = Vec::new();
    for p in &profiles {
        let Some(d) = diff_backend(&baseline, p) else {
            eprintln!("{}: no baseline row to diff against", p.label);
            undiffed += 1;
            continue;
        };
        let d_e2e = d.cur_e2e - d.base_e2e;
        let account = if d.deltas.is_empty() {
            "unchanged".to_string()
        } else {
            d.deltas
                .iter()
                .map(PhaseDelta::render)
                .collect::<Vec<_>>()
                .join(", ")
        };
        diff_table.push(vec![
            d.label.clone(),
            format!("{:+.1} cyc ({:+.1} ns)", d_e2e, d_e2e / CYCLES_PER_NS),
            format!(
                "{:+.2}%",
                if d.base_e2e > 0.0 {
                    (d.cur_e2e / d.base_e2e - 1.0) * 100.0
                } else {
                    0.0
                }
            ),
            format!("{:+.1} cyc", d.residual),
            account,
        ]);
        if d.unattributed_regression {
            eprintln!(
                "{}: end-to-end regressed {:+.1} cycles/call but named phases explain \
                 only {:+.1} (residual {:+.1}, gate {:.0}% of baseline)",
                d.label,
                d_e2e,
                d_e2e - d.residual,
                d.residual,
                RESIDUAL_GATE * 100.0
            );
            unattributed += 1;
        }
    }
    print_table(
        "profile diff vs baseline (Δ per call; ns at 4 GHz)",
        &["transport", "e2e Δ", "e2e Δ%", "residual", "attribution"],
        &diff_table,
    );

    gates.push(Gate::none(
        "rows without a baseline row",
        undiffed,
        "personalities",
    ));
    gates.push(Gate::none(
        "regressions no phase explains",
        unattributed,
        "personalities",
    ));

    let doc = Json::obj()
        .field("bench", "profile")
        .field("calls", CALLS)
        .field(
            "rows",
            Json::Arr(profiles.iter().map(profile_row).collect()),
        );
    finish("profile", &doc, gates);
}
