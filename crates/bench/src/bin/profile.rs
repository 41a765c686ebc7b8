//! The exact profile's evaluation harness: five-way flamegraphs in
//! cycles and a per-phase diff against the committed profile.
//!
//! One serving lane per IPC personality runs the KV workload with span
//! tracing on, harvested in chunks the event ring holds completely, so
//! the exact [`PhaseProfile`] loses nothing no matter how long the run.
//! Per personality the bin then:
//!
//! 1. checks the capture was exact (zero ring overwrites, and a span
//!    stream with nothing unmatched or unclosed, which also proves the
//!    per-tenant folds sum to the whole);
//! 2. holds the phase identity exactly: the in-call phases
//!    ([`PhaseProfile::in_call_total`]) add up to the end-to-end cycles
//!    to the cycle, so any movement of the end-to-end figure is a
//!    movement of named phases;
//! 3. writes a collapsed-stack flamegraph in cycles
//!    (`results/flamegraphs/<backend>.collapsed`, the format
//!    `flamegraph.pl` and speedscope ingest) plus a per-tenant variant
//!    with the tenant as the root frame;
//! 4. prints its end-to-end Δ and every phase that moved against its row
//!    of the committed `results/profile.json`, in cycles per call, and
//!    then rewrites that file from this run: the committed profile is
//!    its own baseline.
//!
//! A run without a baseline to diff against, or with one that does not
//! parse, breaches a gate — and still writes the file, so the next run
//! has one. A re-baseline is a run whose new `profile.json` gets
//! committed.
//!
//! No knob: [`CALLS`] per personality is the size the file records.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use sb_bench::gate::{finish, Gate};
use sb_bench::print_rows;
use sb_bench::report::{write_raw, RESULTS_DIR};
use sb_observe::{
    attribute_by_corr, Json, PhaseProfile, Recorder, SpanKind, DEFAULT_RING_CAPACITY,
};
use sb_runtime::{RequestFactory, Transport};
use sb_ycsb::WorkloadSpec;
use skybridge_repro::scenarios::runtime::{build_backend, Backend, ServingScenario};

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
/// observed phase — what [`diff_row`] reads back from the committed
/// file on the next run.
fn profile_row(p: &BackendProfile) -> Json {
    let mut row = Json::obj()
        .field("transport", p.label.as_str())
        .field("calls", p.prof.calls)
        .field(
            "e2e_cycles_per_call",
            p.prof.end_to_end as f64 / p.prof.calls.max(1) as f64,
        );
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

/// One personality's movement against its row of the baseline
/// document's `rows`, in cycles per call: `e2e`, then one field per
/// phase that moved, named by the phase; `None` without a baseline row.
fn diff_row(baseline: &Json, p: &BackendProfile) -> Option<Json> {
    let base = baseline
        .get("rows")?
        .as_array()?
        .iter()
        .find(|r| r.get("transport").and_then(Json::as_str) == Some(p.label.as_str()))?;
    const E2E: &str = "e2e_cycles_per_call";
    let cur = profile_row(p);
    let at = |row: &Json, field: &str| row.get(field).and_then(Json::as_f64);
    let mut row = Json::obj()
        .field("transport", p.label.as_str())
        .field("e2e", at(&cur, E2E)? - at(base, E2E)?);
    for kind in SpanKind::ALL {
        let field = format!("phase_{}_cycles_per_call", kind.name());
        let d = at(&cur, &field).unwrap_or(0.0) - at(base, &field).unwrap_or(0.0);
        if d.abs() > 1e-9 {
            row = row.field(kind.name(), d);
        }
    }
    Some(row)
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

    let mut undiffed = 0u64;
    let mut diffs = Vec::new();
    for p in &profiles {
        gates.push(Gate::none(
            format!("{}: end-to-end cycles no in-call phase holds", p.label),
            p.prof.end_to_end.abs_diff(p.prof.in_call_total()),
            "cycles",
        ));
        match diff_row(&baseline, p) {
            Some(row) => diffs.push(row),
            None => {
                eprintln!("{}: no baseline row to diff against", p.label);
                undiffed += 1;
            }
        }
    }
    let columns: Vec<&str> = ["transport", "e2e"]
        .into_iter()
        .chain(SpanKind::ALL.iter().map(|kind| kind.name()))
        .collect();
    print_rows(
        "profile diff vs baseline (Δ cycles per call; - = unmoved)",
        &diffs,
        &columns,
    );
    gates.push(Gate::none(
        "rows without a baseline row",
        undiffed,
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
