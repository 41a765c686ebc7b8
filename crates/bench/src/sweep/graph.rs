//! Serving-graph macro-benchmark: YCSB-A/B/C through the client →
//! gateway → cache → db → fs graph on all five IPC personalities, plus
//! the replay and power-loss drills the commit log buys.
//!
//! Four sections, all landing in `results/graph.json`:
//!
//! * **workloads** — open-loop throughput/latency per backend ×
//!   workload (YCSB-A 50/50, B 95/5, C read-only).
//! * **attribution** — per-hop critical-path attribution from the
//!   sentinel-assembled span trees of a traced run (no instrumentation
//!   added: the inner transports' recorders light up).
//! * **replay** — snapshot mid-run, replay `log.since(snapshot)`,
//!   compare disk digests. Divergence breaches a gate, and so does a
//!   drill whose snapshot saw no traffic or whose tail replayed nothing.
//! * **chaos** — the power-loss matrix; a leaked fault, a recovered
//!   state diverging from the full-replay reference, or a personality
//!   whose matrix never lost power breaches a gate.

use std::path::Path;

use crate::gate::{Bound, Gate};
use crate::Artefact;
use sb_graph::GraphSpec;
use sb_observe::{Json, Recorder};
use sb_runtime::{run_stats_json, RuntimeConfig, Transport};
use sb_sentinel::assemble;
use sb_ycsb::WorkloadSpec;
use skybridge_repro::scenarios::graph::{
    build_graph, client_payload, drive_one, replay_drill, run_graph_chaos, run_graph_open_loop,
    DRILL_VALUE_LEN,
};
use skybridge_repro::scenarios::runtime::Backend;

/// Requests per workload cell.
const REQUESTS: u64 = 300;
const CACHE_CAPACITY: usize = 32;
/// Server threads of the workload sweep.
const LANES: usize = 2;
/// Rows in the graph's table.
const RECORDS: usize = 192;
/// Length of the replay and power-loss drills' traces.
const DRILL_OPS: u64 = 160;
const CHAOS_SEEDS: [u64; 3] = [0xc0de_0001, 0xc0de_0002, 0xc0de_0003];

fn spec(records: usize) -> GraphSpec {
    GraphSpec::standard(records as u64, DRILL_VALUE_LEN, CACHE_CAPACITY)
}

/// Mean end-to-end service cycles of one graph request on a warm cell.
fn calibrate(backend: &Backend, spec: &GraphSpec) -> f64 {
    let mut t = build_graph(backend, spec, 1);
    let payload = client_payload(spec);
    let (warm, n) = (16u64, 48u64);
    for i in 0..warm {
        drive_one(&mut t, i + 1, i % spec.records, i % 2 == 0, payload);
    }
    let t0 = t.now(0);
    for i in 0..n {
        let key = (i * 7) % spec.records;
        drive_one(&mut t, warm + i + 1, key, i % 2 == 0, payload);
    }
    (t.now(0) - t0) as f64 / n as f64
}

type WorkloadCtor = fn(u64, usize) -> WorkloadSpec;

fn workload_sweep() -> Vec<Json> {
    let spec = spec(RECORDS);
    let workloads: [(&str, WorkloadCtor); 3] = [
        ("ycsb_a", WorkloadSpec::ycsb_a),
        ("ycsb_b", WorkloadSpec::ycsb_b),
        ("ycsb_c", WorkloadSpec::ycsb_c),
    ];
    let mut rows = Vec::new();
    for backend in Backend::all() {
        // Offer ~70% of the calibrated capacity so queueing is visible
        // but the cell stays stable.
        let svc = calibrate(&backend, &spec);
        let mean_gap = svc / (LANES as f64 * 0.7);
        for (name, make) in workloads {
            let s = run_graph_open_loop(
                &backend,
                &spec,
                LANES,
                RuntimeConfig::default(), // 64-deep lanes that shed
                make(spec.records, spec.value_len),
                mean_gap,
                REQUESTS,
                0x6a_0001,
            );
            rows.push(
                run_stats_json(&s)
                    .field("backend", backend.label())
                    .field("workload", name)
                    .field("service_cycles", svc),
            );
        }
    }
    rows
}

/// Per-hop attribution from a traced run: drive a small fixed trace
/// with a live recorder, assemble the span forest, and attribute each
/// request's children in route order (gateway, cache, db) with
/// everything past the route being fs crossings made by the db's
/// pager I/O.
fn attribution(records: usize, a: &mut Artefact) -> Vec<Json> {
    let mut rows = Vec::new();
    let mut fewest_traced = u64::MAX;
    for backend in Backend::all() {
        let spec = spec(records);
        let mut t = build_graph(&backend, &spec, 1);
        let rec = Recorder::new(sb_observe::DEFAULT_RING_CAPACITY);
        t.attach_recorder(rec.clone());
        let hop_names = t.hop_names();
        let payload = client_payload(&spec);
        let traced = 32u64;
        for i in 0..traced {
            drive_one(&mut t, i + 1, (i * 5) % spec.records, i % 3 == 0, payload);
        }
        let forest = assemble(&rec);
        let mut per_hop: Vec<(String, u64, u64)> = hop_names
            .iter()
            .map(|n| (n.clone(), 0u64, 0u64))
            .chain(std::iter::once(("fs".to_string(), 0, 0)))
            .collect();
        let mut requests = 0u64;
        let mut path_total = 0u64;
        let mut end_to_end = 0u64;
        for corr in 1..=traced {
            let Some(tr) = forest.request(corr) else {
                continue;
            };
            let roots = tr.roots.len();
            a.check("span trees in pieces", "requests", roots != 1, || {
                format!("{} corr {corr}: {roots} roots", backend.label())
            });
            if roots != 1 {
                continue;
            }
            requests += 1;
            end_to_end += tr.roots[0].dur;
            path_total += tr.critical_path_cycles();
            for (i, child) in tr.roots[0].children.iter().enumerate() {
                let slot = i.min(per_hop.len() - 1);
                per_hop[slot].1 += child.dur;
                per_hop[slot].2 += 1;
            }
        }
        fewest_traced = fewest_traced.min(requests);
        let requests = requests.max(1);
        for (hop, cycles, crossings) in &per_hop {
            rows.push(
                Json::obj()
                    .field("backend", backend.label())
                    .field("hop", hop.as_str())
                    .field("mean_cycles", *cycles as f64 / requests as f64)
                    .field("crossings_per_request", *crossings as f64 / requests as f64),
            );
        }
        rows.push(
            Json::obj()
                .field("backend", backend.label())
                .field("hop", "total")
                .field("mean_cycles", end_to_end as f64 / requests as f64)
                .field(
                    "critical_path_share",
                    path_total as f64 / end_to_end.max(1) as f64,
                ),
        );
    }
    a.gates.push(Gate::new(
        "fewest requests a traced run assembled",
        fewest_traced as f64,
        Bound::AtLeast(1.0),
        "requests",
    ));
    rows
}

fn replay_section(ops: u64, a: &mut Artefact) -> Vec<Json> {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let d = replay_drill(&backend, ops, 0x5eed);
        a.check("replays off the live disk", "cells", !d.ok(), || {
            let (live, replay) = (d.live_digest, d.replay_digest);
            format!(
                "{}: live {live:#x}, replay {replay:#x}, caches match: {}",
                d.label, d.cache_match
            )
        });
        a.check(
            "replay drills whose snapshot or tail is empty",
            "cells",
            d.snapshot_seq == 0 || d.replayed == 0,
            || {
                format!(
                    "{}: snapshot seq {}, replayed {}",
                    d.label, d.snapshot_seq, d.replayed
                )
            },
        );
        rows.push(
            Json::obj()
                .field("backend", d.label.as_str())
                .field("ops", d.ops)
                .field("snapshot_seq", d.snapshot_seq)
                .field("replayed", d.replayed)
                .field("disk_digest", format!("{:#018x}", d.live_digest))
                .field("log_digest", format!("{:#018x}", d.log_digest))
                .field("byte_identical", d.ok()),
        );
    }
    rows
}

fn chaos_section(ops: u64, a: &mut Artefact) -> Vec<Json> {
    let mut rows = Vec::new();
    for backend in Backend::all() {
        let mut died = false;
        for seed in CHAOS_SEEDS {
            let o = run_graph_chaos(&backend, seed, ops);
            a.check(
                "power-loss runs with a leak or wrong rows",
                "runs",
                !o.ok(),
                || {
                    let (leaked, rows_match) = (o.leaked, o.rows_match);
                    format!(
                        "{} seed {seed:#x}: leaked {leaked}, rows match: {rows_match}",
                        o.label
                    )
                },
            );
            died |= o.died;
            rows.push(
                Json::obj()
                    .field("backend", o.label.as_str())
                    .field("seed", seed)
                    .field("ops_driven", o.ops)
                    .field("died", o.died)
                    .field("recovered_seq", o.recovered_seq)
                    .field("rolled_forward", o.rolled_forward)
                    .field("injected", o.injected)
                    .field("leaked", o.leaked)
                    .field("rows_match", o.rows_match),
            );
        }
        // A matrix in which the power never fails is vacuous.
        a.check(
            "personalities whose matrix never lost power",
            "personalities",
            !died,
            || backend.label().to_string(),
        );
    }
    rows
}

pub fn run(_: &Path, a: &mut Artefact) {
    let workload_rows = workload_sweep();
    a.rows(
        "YCSB over the serving graph (client → gateway → cache → db → fs)",
        &workload_rows,
        "backend workload throughput_per_mcycle latency_p50 latency_p99 shed_queue_full",
    );

    let attr_rows = attribution(RECORDS, a);
    a.rows(
        "Per-hop attribution (sentinel-assembled span trees)",
        &attr_rows,
        "backend hop mean_cycles crossings_per_request critical_path_share",
    );

    let replay_rows = replay_section(DRILL_OPS, a);
    let chaos_rows = chaos_section(DRILL_OPS, a);

    let doc = Json::obj()
        .field(
            "config",
            Json::obj()
                .field("requests", REQUESTS)
                .field("lanes", LANES)
                .field("records", RECORDS)
                .field("drill_ops", DRILL_OPS),
        )
        .field("workloads", workload_rows)
        .field("attribution", attr_rows)
        .field("replay", replay_rows)
        .field("chaos", chaos_rows);
    a.json("graph.json", &doc);
}
