//! The exact profile: five-way flamegraphs in cycles and a per-phase
//! diff against the committed profile.
//!
//! One serving lane per IPC personality runs the KV workload with span
//! tracing on, harvested in chunks the event ring holds completely, so
//! the exact [`PhaseProfile`] loses nothing no matter how long the run.
//! Per personality the sweep then:
//!
//! 1. checks the capture was exact (zero ring overwrites, and a span
//!    stream with nothing unmatched or unclosed);
//! 2. holds the phase identity exactly: the in-call phases
//!    ([`PhaseProfile::in_call_total`]) add up to the end-to-end cycles
//!    to the cycle, so any movement of the end-to-end figure is a
//!    movement of named phases;
//! 3. writes a collapsed-stack flamegraph in cycles
//!    (`results/flamegraphs/<backend>.collapsed`, the format
//!    `flamegraph.pl` and speedscope ingest) plus a per-tenant variant
//!    with the tenant as the root frame;
//! 4. prints its end-to-end Δ and every phase that moved against its row
//!    of the `profile.json` already in the results directory, in cycles
//!    per call, and then rewrites that file from this run: the committed
//!    profile is its own baseline.
//!
//! A run without a baseline to diff against, or with one that does not
//! parse, breaches a gate — and still writes the file, so the next run
//! has one. A re-baseline is a run whose new `profile.json` gets
//! committed.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use crate::Artefact;
use sb_observe::{
    attribute_by_corr, Json, PhaseProfile, Recorder, SpanKind, DEFAULT_RING_CAPACITY,
};
use sb_runtime::{RequestFactory, Transport};
use skybridge_repro::scenarios::runtime::{build_backend, workload, Backend, PAYLOAD};

/// Tenants in the profiled mix (Zipf-skewed, like the tenant bench).
const TENANTS: u16 = 4;
/// Timed calls per personality.
const CALLS: u64 = 65_536;

/// What the sweep writes: the profile and, per personality, its
/// flamegraph and its per-tenant flamegraph.
pub const FILES: &[&str] = &[
    "profile.json",
    "flamegraphs/seL4.collapsed",
    "flamegraphs/seL4.tenants.collapsed",
    "flamegraphs/Fiasco.OC.collapsed",
    "flamegraphs/Fiasco.OC.tenants.collapsed",
    "flamegraphs/Zircon.collapsed",
    "flamegraphs/Zircon.tenants.collapsed",
    "flamegraphs/skybridge.collapsed",
    "flamegraphs/skybridge.tenants.collapsed",
    "flamegraphs/mpk.collapsed",
    "flamegraphs/mpk.tenants.collapsed",
];

struct BackendProfile {
    label: String,
    prof: PhaseProfile,
    /// The same cycles, split by the tenant each request billed.
    tenants: BTreeMap<u16, PhaseProfile>,
}

/// Profiles one personality exactly: chunked harvests sized so the
/// event ring cannot wrap between drains. Each chunk is folded per
/// tenant — every span of a call carries its request's id, and the sweep
/// knows which tenant each id billed — and the parts merge to the whole.
fn profile_backend(backend: &Backend, calls: u64) -> Result<BackendProfile, String> {
    let label = backend.label().to_string();
    let mut t = build_backend(backend, 1);
    let recorder = Recorder::new(DEFAULT_RING_CAPACITY);
    t.attach_recorder(recorder.clone());

    let mut f = RequestFactory::with_zipf_tenants(workload(), PAYLOAD, TENANTS, 7);
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

    // The capture must be exact: this sweep sizes its chunks so any loss
    // is an accounting bug, not pressure. A span cut by a harvest would
    // also show here, as unmatched and unclosed.
    if recorder.dropped() > 0 {
        return Err(format!(
            "{label}: chunked capture overwrote {} events",
            recorder.dropped()
        ));
    }
    if prof.loss.unmatched > 0 || prof.loss.unclosed > 0 {
        return Err(format!(
            "{label}: malformed span stream ({} unmatched, {} unclosed)",
            prof.loss.unmatched, prof.loss.unclosed
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

pub fn run(dir: &Path, a: &mut Artefact) {
    // The committed profile is the baseline: read it before this run
    // rewrites it. One that is missing or does not parse leaves every row
    // without its baseline row, which breaches a gate below.
    let path = dir.join("profile.json");
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()));

    let mut profiles = Vec::new();
    for backend in Backend::all() {
        let profiled = profile_backend(&backend, CALLS);
        let lossy = "lossy captures or tenant folds off the whole";
        a.check(lossy, "personalities", profiled.is_err(), || {
            profiled.as_ref().err().cloned().unwrap_or_default()
        });
        profiles.extend(profiled.ok());
    }

    // The flamegraphs: one collapsed-stack file per personality, plus a
    // per-tenant variant rooted at the tenant.
    for p in &profiles {
        let tenant = |(tenant, prof): (_, &PhaseProfile)| {
            prof.collapsed(&format!("tenant{tenant};{}", p.label))
        };
        let tenants = p.tenants.iter().map(tenant).collect();
        for (kind, text) in [("", p.prof.collapsed(&p.label)), (".tenants", tenants)] {
            a.files
                .push((format!("flamegraphs/{}{kind}.collapsed", p.label), text));
        }
    }

    let mut diffs = Vec::new();
    for p in &profiles {
        let off = p.prof.end_to_end.abs_diff(p.prof.in_call_total());
        let gate = format!("{}: end-to-end cycles no in-call phase holds", p.label);
        a.check(&gate, "cycles", off, || format!("{off} cycles"));
        let diff = baseline.as_ref().ok().and_then(|b| diff_row(b, p));
        let undiffed = diff.is_none();
        diffs.extend(diff);
        a.check(
            "rows without a baseline row",
            "personalities",
            undiffed,
            || {
                let why = baseline.as_ref().err().map_or("", String::as_str);
                format!("{}: no baseline row to diff against; {why}", p.label)
            },
        );
    }
    let columns: Vec<&str> = ["transport", "e2e"]
        .into_iter()
        .chain(SpanKind::ALL.iter().map(|kind| kind.name()))
        .collect();
    a.rows(
        "profile diff vs baseline (Δ cycles per call; - = unmoved)",
        &diffs,
        &columns.join(" "),
    );

    let doc = Json::obj()
        .field("bench", "profile")
        .field("calls", CALLS)
        .field(
            "rows",
            Json::Arr(profiles.iter().map(profile_row).collect()),
        );
    a.json("profile.json", &doc);
}
