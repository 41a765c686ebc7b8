//! The flight recorder: self-contained JSON postmortem bundles.
//!
//! When an SLO breach or an unrecovered fault fires, the stack's recent
//! state — per-lane event rings and the exact flamegraph folded from
//! the events kept, the run's counters and latencies, PMU counters, the
//! fault-plane ledger, and the SLO tracker's health — is snapshotted
//! into one JSON file under `results/postmortem/`, each fact once. The
//! bundle reads its lanes through the one span pass (`sb_observe::span`)
//! and carries that pass's loss account once, rendered by
//! `sb_observe::loss_json`: how many held events the per-lane budget
//! clipped, how many the rings had already overwritten, and the spans
//! the clipped window cut in half — so a reader can never mistake a
//! clipped capture for the whole story.
//!
//! Bundles are [`Json`] values: rendered by its one writer, and read
//! back by its parser ([`BundleReceipt::read_back`]) wherever a bundle's
//! contents are checked.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use sb_faultplane::{FaultReport, FaultRow};
use sb_observe::{loss_json, Event, EventKind, Json, Loss, PhaseProfile, Recorder, SpanPass};
use sb_sim::Pmu;

use crate::slo::SloHealth;

/// Bundle schema identifier, bumped on incompatible layout changes.
pub const SCHEMA: &str = "sb-postmortem-v3";

/// Newest events a written bundle keeps per lane; older held events are
/// clipped and counted in the bundle's `capture.loss`.
const MAX_EVENTS_PER_LANE: usize = 512;

/// Where bundles are written.
#[derive(Debug, Clone)]
pub struct PostmortemSpec {
    /// Output directory (created on demand).
    pub dir: PathBuf,
}

impl PostmortemSpec {
    /// A spec writing under `dir`.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        PostmortemSpec { dir: dir.into() }
    }
}

/// Everything a bundle can capture; absent pieces render as `null`.
#[derive(Default)]
pub struct PostmortemInput<'a> {
    /// Why the flight recorder fired ("slo_breach", "fault_leak", ...).
    pub reason: &'a str,
    /// Bundle identity — becomes the file name, so keep it filesystem
    /// safe (non `[A-Za-z0-9_.-]` characters are replaced).
    pub tag: &'a str,
    /// The event rings to snapshot.
    pub recorder: Option<&'a Recorder>,
    /// The run as its results row renders it (`sb_runtime`'s
    /// `run_stats_json`, which this crate sits below).
    pub run: Option<&'a Json>,
    /// Machine PMU counters.
    pub pmu: Option<&'a Pmu>,
    /// The fault-plane ledger roll-up.
    pub faults: Option<&'a FaultReport>,
    /// SLO tracker health.
    pub slo: Option<SloHealth>,
}

/// What a written bundle amounted to.
#[derive(Debug, Clone)]
pub struct BundleReceipt {
    /// Where the bundle landed.
    pub path: PathBuf,
    /// Events included across all lanes.
    pub included_events: u64,
    /// What the bundle's capture lost: `clipped` by the per-lane budget,
    /// `ring_dropped` before capture, spans cut in half.
    pub loss: Loss,
}

impl BundleReceipt {
    /// Reads the bundle back from disk and parses it: an `Err` unless it
    /// is one JSON document of this [`SCHEMA`] whose `capture` block
    /// counts exactly the events and the loss this receipt does.
    pub fn read_back(&self) -> Result<Json, String> {
        let body = fs::read_to_string(&self.path).map_err(|e| e.to_string())?;
        let bundle = Json::parse(&body)?;
        let schema = bundle.get("schema").and_then(Json::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("schema {schema:?}, not {SCHEMA}"));
        }
        let capture = bundle.get("capture");
        for (key, receipt) in [
            ("included_events", Json::U64(self.included_events)),
            ("loss", loss_json(&self.loss)),
        ] {
            let held = capture.and_then(|c| c.get(key)).map(Json::to_string);
            if held.as_deref() != Some(receipt.to_string().as_str()) {
                return Err(format!(
                    "capture.{key} is {held:?}, the receipt says {receipt}"
                ));
            }
        }
        Ok(bundle)
    }
}

fn event_json(ev: &Event) -> Json {
    let (tag, kind, dur) = match ev.kind {
        EventKind::Begin(k) => ("begin", k.name(), None),
        EventKind::End(k) => ("end", k.name(), None),
        EventKind::Complete(k, d) => ("complete", k.name(), Some(d as u64)),
        EventKind::Instant(k) => ("instant", k.name(), None),
    };
    let mut j = Json::obj()
        .field("t", ev.t)
        .field("corr", ev.corr)
        .field("ev", tag)
        .field("kind", kind);
    if let Some(d) = dur {
        j = j.field("dur", d);
    }
    j
}

/// The rings block: each lane's held events, its newest `budget`, as
/// the span pass read them.
fn rings_json(held: &[Vec<Event>]) -> Json {
    let lanes = held.iter().enumerate().map(|(lane, events)| {
        Json::obj()
            .field("lane", lane)
            .field("events", Json::Arr(events.iter().map(event_json).collect()))
    });
    Json::Arr(lanes.collect())
}

/// The exact profile of the events the bundle holds: their self-cycles
/// folded by stack path (`call;handler`), so a bundle is enough to draw
/// the flamegraph of the window that breached. A clipped or overwritten
/// lane can open mid-span; the pass counts such spans as `unmatched` /
/// `unclosed` in the capture's loss, and they are charged nowhere.
fn flamegraph_json(pass: &SpanPass) -> Json {
    let folds = PhaseProfile::of(pass)
        .stacks
        .into_iter()
        .map(|(path, cycles)| (path, Json::U64(cycles)))
        .collect();
    Json::obj().field("folds", Json::Obj(folds))
}

fn pmu_json(p: &Pmu) -> Json {
    Json::obj()
        .field("l1i_misses", p.l1i_misses)
        .field("l1d_misses", p.l1d_misses)
        .field("l2_misses", p.l2_misses)
        .field("l3_misses", p.l3_misses)
        .field("itlb_misses", p.itlb_misses)
        .field("dtlb_misses", p.dtlb_misses)
        .field("page_walks", p.page_walks)
        .field("walk_memory_accesses", p.walk_memory_accesses)
        .field("ipis", p.ipis)
        .field("vm_exits", p.vm_exits)
        .field("vmfuncs", p.vmfuncs)
        .field("mode_switches", p.mode_switches)
        .field("cr3_writes", p.cr3_writes)
        .field("wrpkru_writes", p.wrpkru_writes)
}

/// One fault-ledger row: the renderer of a bundle's `faults.rows` and of
/// the chaos results' rows alike.
pub fn fault_row_json(row: &FaultRow) -> Json {
    Json::obj()
        .field("point", row.point.name())
        .field("injected", row.injected)
        .field("detected", row.detected)
        .field("recovered", row.recovered)
        .field("leaked", row.leaked)
}

fn faults_json(r: &FaultReport) -> Json {
    Json::obj()
        .field(
            "rows",
            Json::Arr(r.rows.iter().map(fault_row_json).collect()),
        )
        .field("injected", r.injected())
        .field("detected", r.detected())
        .field("recovered", r.recovered())
        .field("leaked", r.leaked())
}

/// SLO health: the renderer of a bundle's `slo` block and of the chaos
/// results' rows alike.
pub fn slo_json(h: &SloHealth) -> Json {
    Json::obj()
        .field("good", h.good)
        .field("bad", h.bad)
        .field("fast_burn", h.fast_burn)
        .field("slow_burn", h.slow_burn)
        .field("breaches", h.breaches)
        .field("first_breach", h.first_breach.map_or(Json::Null, Json::U64))
        .field("in_breach", h.in_breach)
}

/// Renders the bundle JSON without touching the filesystem. Returns the
/// JSON, the events included and the capture's loss.
pub fn render(input: &PostmortemInput<'_>, max_events_per_lane: usize) -> (String, u64, Loss) {
    let (rings, flamegraph, included, loss) = match input.recorder {
        Some(rec) => {
            let (held, pass) = rec.capture(max_events_per_lane);
            let included = held.iter().map(|lane| lane.len() as u64).sum();
            let rings = rings_json(&held);
            (rings, flamegraph_json(&pass), included, pass.loss)
        }
        None => (Json::Null, Json::Null, 0, Loss::default()),
    };
    let capture = Json::obj()
        .field("per_lane_budget", max_events_per_lane)
        .field("included_events", included)
        .field("loss", loss_json(&loss));
    let bundle = Json::obj()
        .field("schema", SCHEMA)
        .field("reason", input.reason)
        .field("tag", input.tag)
        .field("capture", capture)
        .field("rings", rings)
        .field("flamegraph", flamegraph)
        .field("run", input.run.cloned().unwrap_or(Json::Null))
        .field("pmu", input.pmu.map_or(Json::Null, pmu_json))
        .field("faults", input.faults.map_or(Json::Null, faults_json))
        .field("slo", input.slo.as_ref().map_or(Json::Null, slo_json));
    (bundle.to_string(), included, loss)
}

fn safe_name(tag: &str) -> String {
    let cleaned: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "postmortem".to_string()
    } else {
        cleaned
    }
}

/// Renders and writes the bundle as `<spec.dir>/<tag>.json`, keeping the
/// newest 512 events of each lane.
pub fn write(spec: &PostmortemSpec, input: &PostmortemInput<'_>) -> io::Result<BundleReceipt> {
    let (json, included_events, loss) = render(input, MAX_EVENTS_PER_LANE);
    fs::create_dir_all(&spec.dir)?;
    let path: PathBuf = Path::new(&spec.dir).join(format!("{}.json", safe_name(input.tag)));
    fs::write(&path, &json)?;
    Ok(BundleReceipt {
        path,
        included_events,
        loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_observe::SpanKind;

    /// The value at `path` (object keys; a number walks into an array).
    fn at<'a>(j: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(j, |j, step| {
            let next = match step.parse::<usize>() {
                Ok(i) => j.as_array().and_then(|items| items.get(i)),
                Err(_) => j.get(step),
            };
            next.unwrap_or_else(|| panic!("no {path:?} in {j}"))
        })
    }

    fn num(j: &Json, path: &[&str]) -> f64 {
        at(j, path)
            .as_f64()
            .unwrap_or_else(|| panic!("{path:?} is not a number"))
    }

    #[test]
    fn json_escapes_and_prints_integers_fraction_free() {
        let input = PostmortemInput {
            reason: "slo \"breach\"\n",
            tag: "a\\b",
            ..PostmortemInput::default()
        };
        let (json, ..) = render(&input, 16);
        assert!(
            json.contains(r#""reason":"slo \"breach\"\n","tag":"a\\b""#),
            "{json}"
        );
        assert!(json.contains(r#""per_lane_budget":16,"#), "{json}");
        let bundle = Json::parse(&json).expect("valid");
        assert_eq!(at(&bundle, &["reason"]).as_str(), Some(input.reason));
        assert_eq!(at(&bundle, &["tag"]).as_str(), Some(input.tag));
    }

    #[test]
    fn empty_bundle_is_valid_and_self_describing() {
        let input = PostmortemInput {
            reason: "unit",
            tag: "t",
            ..PostmortemInput::default()
        };
        let (json, included, loss) = render(&input, 16);
        assert_eq!((included, loss), (0, Loss::default()));
        let bundle = Json::parse(&json).expect("valid");
        assert_eq!(at(&bundle, &["schema"]).as_str(), Some(SCHEMA));
        assert!(matches!(at(&bundle, &["rings"]), Json::Null));
    }

    #[test]
    fn clipping_accounts_for_every_event_exactly() {
        let rec = Recorder::new(256);
        for i in 0..100u64 {
            rec.span(0, SpanKind::Call, i * 10, i * 10 + 5, i + 1);
        }
        for i in 0..30u64 {
            rec.span(1, SpanKind::Handler, i * 10, i * 10 + 4, i + 1);
        }
        let input = PostmortemInput {
            reason: "unit",
            tag: "clip",
            recorder: Some(&rec),
            ..PostmortemInput::default()
        };
        let (json, included, loss) = render(&input, 40);
        let bundle = Json::parse(&json).expect("valid");
        assert_eq!(included, 40 + 30, "lane 0 clipped to budget, lane 1 whole");
        assert_eq!(loss.clipped, 60, "exactly the clipped remainder");
        assert_eq!(
            loss.ring_dropped, 0,
            "nothing was overwritten at capacity 256"
        );
        assert_eq!(num(&bundle, &["capture", "loss", "clipped"]), 60.0);
        // The newest events are the ones kept.
        assert_eq!(
            num(&bundle, &["rings", "0", "events", "39", "t"]),
            990.0,
            "lane 0's final span survives"
        );
        // The flamegraph folds what the bundle holds, not the whole ring.
        assert_eq!(num(&bundle, &["flamegraph", "folds", "call"]), 40.0 * 5.0);
        assert_eq!(
            num(&bundle, &["flamegraph", "folds", "handler"]),
            30.0 * 4.0
        );
    }

    #[test]
    fn ring_overwrite_shows_up_as_ring_dropped() {
        let rec = Recorder::new(8);
        for i in 0..50u64 {
            rec.span(0, SpanKind::Call, i, i + 1, i + 1);
        }
        let input = PostmortemInput {
            reason: "unit",
            tag: "wrap",
            recorder: Some(&rec),
            ..PostmortemInput::default()
        };
        let (_, included, loss) = render(&input, 1024);
        assert_eq!(included, 8);
        assert_eq!(
            loss.ring_dropped, 42,
            "the rings own the exact overwrite count"
        );
    }

    #[test]
    fn full_bundle_round_trips_every_section() {
        let rec = Recorder::new(64);
        rec.span(0, SpanKind::Call, 0, 100, 1);
        let run = Json::obj()
            .field("offered", 3u64)
            .field("latency_p99", 250u64);
        let pmu = Pmu {
            vmfuncs: 7,
            ..Pmu::default()
        };
        let slo = SloHealth {
            good: 10,
            bad: 2,
            breaches: 1,
            first_breach: Some(123),
            in_breach: true,
            fast_burn: 20.0,
            slow_burn: 3.5,
        };
        let input = PostmortemInput {
            reason: "slo_breach",
            tag: "full",
            recorder: Some(&rec),
            run: Some(&run),
            pmu: Some(&pmu),
            faults: None,
            slo: Some(slo),
        };
        let (json, ..) = render(&input, 16);
        let b = Json::parse(&json).expect("valid");
        for (path, text) in [
            (&["schema"][..], SCHEMA),
            (&["reason"], "slo_breach"),
            (&["tag"], "full"),
            (&["rings", "0", "events", "0", "ev"], "complete"),
            (&["rings", "0", "events", "0", "kind"], "call"),
        ] {
            assert_eq!(at(&b, path).as_str(), Some(text), "{path:?}");
        }
        for (path, n) in [
            (&["capture", "per_lane_budget"][..], 16.0),
            (&["capture", "included_events"], 1.0),
            (&["capture", "loss", "ring_dropped"], 0.0),
            (&["capture", "loss", "clipped"], 0.0),
            (&["capture", "loss", "unmatched"], 0.0),
            (&["capture", "loss", "unclosed"], 0.0),
            (&["rings", "0", "events", "0", "t"], 0.0),
            (&["rings", "0", "events", "0", "corr"], 1.0),
            (&["rings", "0", "events", "0", "dur"], 100.0),
            (&["run", "offered"], 3.0),
            (&["run", "latency_p99"], 250.0),
            (&["pmu", "vmfuncs"], 7.0),
            (&["pmu", "ipis"], 0.0),
            (&["slo", "good"], 10.0),
            (&["slo", "bad"], 2.0),
            (&["slo", "breaches"], 1.0),
            (&["slo", "first_breach"], 123.0),
            (&["slo", "fast_burn"], 20.0),
            (&["slo", "slow_burn"], 3.5),
        ] {
            assert_eq!(num(&b, path), n, "{path:?}");
        }
        assert!(matches!(at(&b, &["slo", "in_breach"]), Json::Bool(true)));
        assert_eq!(num(&b, &["flamegraph", "folds", "call"]), 100.0);
        assert!(matches!(at(&b, &["faults"]), Json::Null));
        assert_eq!(
            b.to_string(),
            json,
            "the bundle re-renders to its own bytes"
        );
    }

    /// Every PMU counter reaches the bundle under its own name: each
    /// field of a `Pmu` whose fields all differ reads back by the name
    /// its `Debug` form gives it.
    #[test]
    fn the_pmu_block_carries_every_counter() {
        let pmu = Pmu {
            l1i_misses: 1,
            l1d_misses: 2,
            l2_misses: 3,
            l3_misses: 4,
            itlb_misses: 5,
            dtlb_misses: 6,
            page_walks: 7,
            walk_memory_accesses: 8,
            ipis: 9,
            vm_exits: 10,
            vmfuncs: 11,
            mode_switches: 12,
            cr3_writes: 13,
            wrpkru_writes: 14,
        };
        let input = PostmortemInput {
            pmu: Some(&pmu),
            ..PostmortemInput::default()
        };
        let (json, ..) = render(&input, 16);
        let b = Json::parse(&json).expect("valid");
        let debug = format!("{pmu:?}");
        let fields: Vec<(&str, f64)> = debug["Pmu { ".len()..debug.len() - " }".len()]
            .split(", ")
            .map(|f| {
                let (name, v) = f.split_once(": ").expect("name: value");
                (name, v.parse().expect("a count"))
            })
            .collect();
        assert_eq!(fields.len(), 14);
        for (name, v) in fields {
            assert_eq!(num(&b, &["pmu", name]), v, "pmu.{name}");
        }
        let Json::Obj(block) = at(&b, &["pmu"]) else {
            panic!("the pmu block is an object")
        };
        assert_eq!(block.len(), 14, "one key per counter");
    }

    #[test]
    fn write_lands_in_the_spec_dir_with_a_safe_name() {
        let dir = std::env::temp_dir().join("sb_sentinel_pm_test");
        let _ = fs::remove_dir_all(&dir);
        let spec = PostmortemSpec::in_dir(&dir);
        let input = PostmortemInput {
            reason: "unit",
            tag: "seed 0x1/evil",
            ..PostmortemInput::default()
        };
        let mut receipt = write(&spec, &input).expect("writable");
        assert!(receipt.path.ends_with("seed_0x1_evil.json"));
        let bundle = receipt.read_back().expect("valid on disk");
        assert_eq!(at(&bundle, &["tag"]).as_str(), Some("seed 0x1/evil"));
        // Every loss field is held to the receipt, not only the two a
        // clip and an overwrite set.
        let fields: [fn(&mut Loss) -> &mut u64; 4] = [
            |l| &mut l.ring_dropped,
            |l| &mut l.clipped,
            |l| &mut l.unmatched,
            |l| &mut l.unclosed,
        ];
        for field in fields {
            let mut wrong = receipt.clone();
            *field(&mut wrong.loss) += 1;
            let e = wrong.read_back().unwrap_err();
            assert!(e.contains("capture.loss"), "{e}");
        }
        receipt.included_events += 1;
        let e = receipt.read_back().unwrap_err();
        assert!(e.contains("capture.included_events"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }
}
