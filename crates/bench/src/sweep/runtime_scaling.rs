//! Serving-runtime scaling sweep: threads × offered load × IPC transport.
//!
//! For each of the five personalities and each worker-thread count
//! (1/2/4/8 simulated cores), the sweep calibrates the base service
//! time, then offers open-loop Poisson load at multiples of the
//! theoretical capacity (ρ = offered / capacity) and records throughput,
//! p50/p95/p99 latency, shed counts, and per-core utilization
//! (`results/runtime_scaling.json`).
//!
//! A **five-way gate** closes the sweep: the trap kernels'
//! calibrated service time must exceed SkyBridge's, and MPK's must
//! undercut it — two WRPKRU flips (2 × 28 cycles) against a VMFUNC round
//! trip (2 × 134). That the phases decompose each personality's
//! end-to-end cycles is the `profile` sweep's exact identity gate.
//!
//! The one knob, `SB_TRACE=<label>` (`sel4`, `fiasco`, `zircon`, `skybridge`,
//! `mpk`) additionally runs one traced cell on that personality with a
//! live recorder and dumps `results/traces/runtime_scaling_trace.json` —
//! a Chrome trace-event file: open <https://ui.perfetto.dev> and drag it
//! in, or load it at `chrome://tracing`.

use std::path::Path;

use crate::gate::{Bound, Gate};
use crate::{traced_backend, Artefact};
use sb_observe::{chrome_trace, Json, Recorder};
use sb_runtime::{run_stats_json, RuntimeConfig};
use skybridge_repro::scenarios::runtime::{calibrate, run_open_loop, Backend};
use skybridge_repro::scenarios::throughput;

/// Arrivals per sweep cell (and in the `SB_TRACE` cell).
const REQUESTS: u64 = 500;
/// Event-ring capacity of the `SB_TRACE` cell.
const TRACE_RING: usize = 1 << 15;

/// `SB_TRACE` mode: one fully traced cell whose Chrome trace goes to
/// `results/traces/runtime_scaling_trace.json` for Perfetto (the
/// `traces/` subtree is scratch output and stays untracked; a small
/// checked-in sample lives at `results/sample_trace.json`). Uses a ring much
/// larger than the always-on default so a whole cell fits without
/// overwrites (and reports how many events were dropped if not).
fn dump_trace(backend: &Backend, a: &mut Artefact) {
    let recorder = Recorder::new(TRACE_RING);
    let cfg = RuntimeConfig {
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let svc = calibrate(backend, 64, 256).mean();
    let workers = 4;
    let stats = run_open_loop(
        backend,
        workers,
        cfg,
        None,
        svc / (workers as f64 * 0.8),
        REQUESTS,
        0x7a_ced0_5eed,
    );
    let trace = chrome_trace(&recorder);
    a.text += &format!(
        "\ntraced kv/ycsb-a on {} ({} requests, {} events{}): open https://ui.perfetto.dev \
         and drag the trace file in\n",
        backend.label(),
        stats.completed,
        trace.events,
        if trace.loss.ring_dropped > 0 {
            format!(
                ", ring overwrote {} — raise TRACE_RING",
                trace.loss.ring_dropped
            )
        } else {
            String::new()
        },
    );
    a.files
        .push(("traces/runtime_scaling_trace.json".into(), trace.json));
}

/// The five-way gate over the (label, service cycles) pairs the sweep
/// calibrated, as gates of `a`; one `{transport, service_cycles}` row
/// per pair is returned.
fn five_way_gate(svcs: &[(String, f64)], a: &mut Artefact) -> Vec<Json> {
    // Two WRPKRU flips undercut a VMFUNC round trip, which undercuts a
    // trap pair: every other personality is held to SkyBridge's service
    // time (NaN, a breach, should SkyBridge leave the sweep).
    let sky = svcs
        .iter()
        .find(|(l, _)| l == "skybridge")
        .map_or(f64::NAN, |&(_, s)| s);
    for (label, svc) in svcs {
        let bound = match label.as_str() {
            "skybridge" => continue,
            "mpk" => Bound::Below(1.0),
            _ => Bound::Above(1.0),
        };
        let name = format!("{label} / skybridge service cycles");
        a.gates.push(Gate::new(name, svc / sky, bound, "ratio"));
    }

    svcs.iter()
        .map(|(label, svc)| {
            Json::obj()
                .field("transport", label.as_str())
                .field("service_cycles", *svc)
        })
        .collect()
}

pub fn run(_: &Path, a: &mut Artefact) {
    // Read first, so an unknown label stops the run before the sweep.
    let traced = traced_backend();
    let threads = [1usize, 2, 4, 8];
    let rhos = [0.5, 0.8, 1.0, 1.2, 1.5];
    let cells = Backend::all().len() * threads.len() * rhos.len();
    a.text += &format!(
        "runtime_scaling: {cells} cells x {REQUESTS} requests = {} total simulated requests\n",
        cells as u64 * REQUESTS
    );

    let mut json_rows: Vec<Json> = Vec::new();
    let mut svcs: Vec<(String, f64)> = Vec::new();
    for (ti, transport) in Backend::all().iter().enumerate() {
        let svc = calibrate(transport, 64, 256).mean();
        svcs.push((transport.label().to_string(), svc));
        for (wi, &workers) in threads.iter().enumerate() {
            for (ri, &rho) in rhos.iter().enumerate() {
                let mean_ia = svc / (workers as f64 * rho);
                // Every cell: the default 64-deep lanes that shed.
                let cfg = RuntimeConfig::default();
                let seed = 0x0005_ca1e_0000 + (ti * 1000 + wi * 100 + ri) as u64;
                let stats = run_open_loop(transport, workers, cfg, None, mean_ia, REQUESTS, seed);
                json_rows.push(
                    Json::obj()
                        .field("transport", transport.label())
                        .field("workers", workers)
                        .field("rho", rho)
                        .field("service_cycles", svc)
                        .field("mean_inter_arrival", mean_ia)
                        .field("offered_per_mcycle", 1e6 / mean_ia)
                        .field("ops_per_sec", throughput(stats.completed, stats.window()))
                        .field("stats", run_stats_json(&stats)),
                );
            }
        }
    }
    a.rows(
        "runtime scaling (simulated cycles)",
        &json_rows,
        "transport workers rho service_cycles stats.throughput_per_mcycle stats.latency_p99 \
         stats.shed_queue_full",
    );

    let five_way = five_way_gate(&svcs, a);
    a.rows(
        "five-way crossing comparison (calibrated service cycles/call)",
        &five_way,
        "transport service_cycles",
    );

    let doc = Json::obj()
        .field("bench", "runtime_scaling")
        .field("scenario", "kv")
        .field("workload", "ycsb-a")
        .field("requests_per_cell", REQUESTS)
        .field("queue_capacity", RuntimeConfig::default().queue_capacity)
        .field("five_way", Json::obj().field("rows", five_way))
        .field("rows", Json::Arr(json_rows));
    a.text += "\nShape to check: at every thread count SkyBridge's zero-shed\n\
               offered load sits above each trap-based kernel's with MPK's above\n\
               both, and p99 blows up past rho = 1.0 while the Shed policy\n\
               bounds queue depth.\n";

    if let Some(backend) = traced {
        dump_trace(&backend, a);
    }
    a.json("runtime_scaling.json", &doc);
}
