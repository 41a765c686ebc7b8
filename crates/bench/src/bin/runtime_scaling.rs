//! Serving-runtime scaling sweep: threads × offered load × IPC transport.
//!
//! For each of the five transports (seL4, Fiasco.OC, Zircon kernel IPC,
//! SkyBridge direct server calls, and MPK protection-key crossings) and
//! each worker-thread count (1/2/4/8 simulated cores), the sweep
//! calibrates the transport's base service time, then offers open-loop
//! Poisson load at multiples of the theoretical capacity
//! (ρ = offered / capacity) and records throughput, p50/p95/p99 latency,
//! shed counts, and per-core utilization. Results go to
//! `results/runtime_scaling.json`.
//!
//! A CI-enforced **five-way gate** closes the sweep: every personality's
//! traced phase self-times must decompose its end-to-end cycles (within
//! 5%), the trap kernels' calibrated service time must exceed
//! SkyBridge's, and MPK's must undercut it — two WRPKRU flips
//! (2 × 28 cycles) against a VMFUNC round trip (2 × 134).
//!
//! No run-size knob: 100 cells × [`REQUESTS`] = 50 000 simulated
//! requests, the size `results/runtime_scaling.json` records.
//!
//! Knob: `SB_TRACE=<label>` (`sel4`, `fiasco`, `zircon`, `skybridge`,
//! `mpk`) additionally runs one traced cell on that personality with a
//! live recorder and dumps `results/traces/runtime_scaling_trace.json` —
//! a Chrome trace-event file: open <https://ui.perfetto.dev> and drag it
//! in, or load it at `chrome://tracing`.

use sb_bench::{
    calibrate,
    gate::{finish, Bound, Gate},
    kv_factory, print_table,
    report::{run_stats_json, write_raw},
    traced_backend,
};
use sb_observe::{attribute, chrome_trace, Json, Recorder, SpanKind};
use sb_runtime::{AdmissionPolicy, RuntimeConfig};
use skybridge_repro::scenarios::runtime::{
    build_backend, ops_per_sec, run_open_loop, Backend, ServingScenario,
};

/// Arrivals per sweep cell (and in the `SB_TRACE` cell).
const REQUESTS: u64 = 500;
/// Event-ring capacity of the `SB_TRACE` cell.
const TRACE_RING: usize = 1 << 15;
/// Queue capacity of every sweep cell.
const QUEUE_CAPACITY: usize = 64;

/// `SB_TRACE` mode: one fully traced cell whose Chrome trace goes to
/// `results/traces/runtime_scaling_trace.json` for Perfetto (the
/// `traces/` subtree is scratch output and stays untracked; a small
/// checked-in sample lives at `results/sample_trace.json`). Uses a ring much
/// larger than the always-on default so a whole cell fits without
/// overwrites (and reports how many events were dropped if not).
fn dump_trace(backend: &Backend) -> Gate {
    let recorder = Recorder::new(TRACE_RING);
    let cfg = RuntimeConfig {
        queue_capacity: QUEUE_CAPACITY,
        policy: AdmissionPolicy::Shed,
        queue_deadline: None,
        recorder: recorder.clone(),
        ..RuntimeConfig::default()
    };
    let svc = calibrate(backend, 64, 256);
    let workers = 4;
    let stats = run_open_loop(
        ServingScenario::Kv,
        backend,
        workers,
        cfg,
        svc / (workers as f64 * 0.8),
        REQUESTS,
        0x7a_ced0_5eed,
    );
    let trace = chrome_trace(&recorder);
    println!(
        "\ntraced kv/ycsb-a on {} ({} requests, {} events{}): open https://ui.perfetto.dev \
         and drag the trace file in",
        backend.label(),
        stats.completed,
        trace.events,
        if trace.truncated {
            format!(", ring overwrote {} — raise TRACE_RING", trace.dropped)
        } else {
            String::new()
        },
    );
    Gate::written(write_raw("traces/runtime_scaling_trace.json", &trace.json))
}

/// Tolerance on the per-personality phase-decomposition identity.
const PHASE_TOLERANCE: f64 = 0.05;

/// The five-way gate: every personality's traced phases must decompose
/// its end-to-end cycles, and the calibrated service times must order
/// the way the crossing costs say they should — each trap kernel above
/// SkyBridge, and MPK below it (two WRPKRU flips against a VMFUNC round
/// trip). `svcs` carries the (label, service cycles) pairs the sweep
/// calibrated; the conditions land in `gates`.
fn five_way_gate(svcs: &[(String, f64)], gates: &mut Vec<Gate>) -> Json {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let recorder = Recorder::new(1 << 14);
        let mut t = build_backend(ServingScenario::Kv, &backend, 1);
        let mut f = kv_factory();
        for _ in 0..64 {
            let r = f.make(t.now(0), None);
            t.call(0, &r).expect("warm call");
        }
        t.attach_recorder(recorder.clone());
        for _ in 0..256 {
            let r = f.make(t.now(0), None);
            t.call(0, &r).expect("traced call");
        }
        let by_lane: Vec<_> = (0..recorder.lane_count())
            .map(|l| recorder.events(l))
            .collect();
        let prof = attribute(&by_lane);
        let ratio = if prof.end_to_end == 0 {
            0.0
        } else {
            prof.in_call_total() as f64 / prof.end_to_end as f64
        };
        gates.push(Gate::new(
            format!("{}: |phase sum / end-to-end - 1|", backend.label()),
            (ratio - 1.0).abs(),
            Bound::AtMost(PHASE_TOLERANCE),
            "ratio",
        ));
        let mut phases = Vec::new();
        for kind in SpanKind::ALL {
            if prof.get(kind) > 0 {
                phases.push(
                    Json::obj()
                        .field("phase", kind.name())
                        .field("cycles_per_call", prof.per_call(kind)),
                );
            }
        }
        let svc = svcs
            .iter()
            .find(|(l, _)| l == backend.label())
            .map(|&(_, s)| s)
            .unwrap_or(0.0);
        rows.push(
            Json::obj()
                .field("transport", backend.label())
                .field("service_cycles", svc)
                .field("phase_sum_over_end_to_end", ratio)
                .field("breakdown", Json::Arr(phases)),
        );
    }

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
        gates.push(Gate::new(name, svc / sky, bound, "ratio"));
    }

    Json::obj()
        .field("phase_tolerance", PHASE_TOLERANCE)
        .field("rows", Json::Arr(rows))
}

fn main() {
    // Read first, so an unknown label stops the run before the sweep.
    let traced = traced_backend();
    let scenario = ServingScenario::Kv;
    let threads = [1usize, 2, 4, 8];
    let rhos = [0.5, 0.8, 1.0, 1.2, 1.5];
    let cells = Backend::all().len() * threads.len() * rhos.len();
    println!(
        "runtime_scaling: {cells} cells x {REQUESTS} requests = {} total simulated requests",
        cells as u64 * REQUESTS
    );

    let mut json_rows: Vec<Json> = Vec::new();
    let mut svcs: Vec<(String, f64)> = Vec::new();
    for (ti, transport) in Backend::all().iter().enumerate() {
        let svc = calibrate(transport, 64, 256);
        svcs.push((transport.label().to_string(), svc));
        let mut rows = Vec::new();
        for (wi, &workers) in threads.iter().enumerate() {
            let mut row = vec![format!("{} threads", workers)];
            for (ri, &rho) in rhos.iter().enumerate() {
                let mean_ia = svc / (workers as f64 * rho);
                let cfg = RuntimeConfig {
                    queue_capacity: QUEUE_CAPACITY,
                    policy: AdmissionPolicy::Shed,
                    queue_deadline: None,
                    ..RuntimeConfig::default()
                };
                let seed = 0x0005_ca1e_0000 + (ti * 1000 + wi * 100 + ri) as u64;
                let stats =
                    run_open_loop(scenario, transport, workers, cfg, mean_ia, REQUESTS, seed);
                row.push(format!(
                    "{:.1}/Mc p99={} shed={}",
                    stats.throughput_per_mcycle(),
                    stats.p99(),
                    stats.shed()
                ));
                json_rows.push(
                    Json::obj()
                        .field("transport", transport.label())
                        .field("workers", workers)
                        .field("rho", rho)
                        .field("service_cycles", svc)
                        .field("mean_inter_arrival", mean_ia)
                        .field("offered_per_mcycle", 1e6 / mean_ia)
                        .field("ops_per_sec", ops_per_sec(&stats))
                        .field("stats", run_stats_json(&stats)),
                );
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "runtime scaling on {} (service ~{:.0} cycles) — throughput/Mcycle, p99 cycles, shed",
                transport.label(),
                svc
            ),
            &["workers", "rho=0.5", "rho=0.8", "rho=1.0", "rho=1.2", "rho=1.5"],
            &rows,
        );
    }

    let mut gates = Vec::new();
    let five_way = five_way_gate(&svcs, &mut gates);
    let mut order = svcs.clone();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    print_table(
        "five-way crossing comparison (calibrated service cycles/call, cheapest first)",
        &["transport", "service cycles"],
        &order
            .iter()
            .map(|(l, s)| vec![l.clone(), format!("{s:.0}")])
            .collect::<Vec<_>>(),
    );

    let doc = Json::obj()
        .field("bench", "runtime_scaling")
        .field("scenario", "kv")
        .field("workload", "ycsb-a")
        .field("requests_per_cell", REQUESTS)
        .field("queue_capacity", QUEUE_CAPACITY)
        .field("five_way", five_way)
        .field("rows", Json::Arr(json_rows));
    println!(
        "\nShape to check: at every thread count SkyBridge's zero-shed\n\
         offered load sits above each trap-based kernel's with MPK's above\n\
         both, and p99 blows up past rho = 1.0 while the Shed policy\n\
         bounds queue depth."
    );

    if let Some(backend) = traced {
        gates.push(dump_trace(&backend));
    }
    finish("runtime_scaling", &doc, gates);
}
