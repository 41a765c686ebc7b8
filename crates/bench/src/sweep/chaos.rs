//! The chaos sweep: seeds × fault mixes × IPC personalities, plus the
//! file-system crash cells and the flight-recorder drill.
//!
//! Every serving cell is one open-loop run with retry-with-backoff and
//! transport recovery enabled, faults injected per a seeded
//! `sb_faultplane::FaultMix`; the sweep prints each cell's row of
//! `results/chaos.json` — the fault ledger (injected / recovered /
//! leaked) next to the serving outcome. Cells run with the sentinel
//! armed: an unrecovered fault or SLO breach must produce a postmortem
//! bundle under the results directory's `postmortem/`, and the drill
//! cell proves the recorder fires end-to-end by leaking a fault on
//! purpose. The gates: every cell conserves its requests, no fault leaks,
//! every incident has a bundle, and the drill's bundle reads back: one
//! JSON document of the bundle schema whose capture block matches its
//! receipt.

use std::path::Path;

use crate::report::{chaos_outcome_json, fs_chaos_json, receipt_json};
use crate::Artefact;
use sb_observe::Json;
use sb_sentinel::PostmortemSpec;
use skybridge_repro::scenarios::chaos::{
    fs_mixes, run_chaos_cell, run_fs_chaos, run_postmortem_drill, serving_mixes,
};
use skybridge_repro::scenarios::runtime::Backend;

/// Seeds per serving cell.
const SEEDS: u64 = 2;
/// Arrivals per serving cell.
const REQUESTS: u64 = 200;
/// Seeds per FS mix.
const FS_SEEDS: u64 = 32;
/// The zero-leak gate, over serving and FS cells alike.
const LEAKED: &str = "faults never detected or recovered";

pub fn run(dir: &Path, a: &mut Artefact) {
    let flight = PostmortemSpec::in_dir(dir.join("postmortem"));

    let mut json_rows: Vec<Json> = Vec::new();
    let mut leaked_total = 0u64;
    let mut incidents = 0u64;
    let mut missing_bundles = 0u64;
    for transport in Backend::all() {
        for mix in serving_mixes() {
            for s in 0..SEEDS {
                let seed = 0xc4a0_5000 + s;
                let out = run_chaos_cell(&transport, seed, &mix, REQUESTS, None, Some(&flight));
                let cell = format!("{}/{}/{seed:#x}", transport.label(), mix.name);
                a.check(
                    "cells that do not conserve requests",
                    "cells",
                    !out.conserved(),
                    || format!("{cell}: conservation violated"),
                );
                let leaked = out.report.leaked();
                leaked_total += leaked;
                a.check(LEAKED, "faults", leaked, || format!("{cell} leaked"));
                // The sentinel contract: every incident gets a bundle.
                let incident = out.report.unrecovered() > 0 || out.slo.breached();
                let unbundled = incident && out.postmortem.is_none();
                incidents += u64::from(incident);
                missing_bundles += u64::from(unbundled);
                a.check("incidents without a bundle", "incidents", unbundled, || {
                    format!("{cell} tripped the sentinel but wrote no postmortem")
                });
                json_rows.push(
                    chaos_outcome_json(&out, mix.name, seed).field("transport", transport.label()),
                );
            }
        }
    }
    a.rows(
        &format!("chaos ({REQUESTS} requests/cell)"),
        &json_rows,
        "transport mix seed injected recovered leaked run.completed run.shed_queue_full \
         run.failed slo.breaches",
    );

    let mut fs_json: Vec<Json> = Vec::new();
    for mix in fs_mixes() {
        for s in 0..FS_SEEDS {
            let seed = 0xf5ee_0000 + s;
            let out = run_fs_chaos(seed, &mix, 12);
            let leaked = out.report.leaked();
            leaked_total += leaked;
            a.check(LEAKED, "faults", leaked, || {
                format!("fs {}/{seed:#x} leaked", mix.name)
            });
            fs_json.push(fs_chaos_json(&out, mix.name, seed));
        }
    }
    a.rows(
        "fs chaos (committed-prefix across remount)",
        &fs_json,
        "mix seed attempted committed torn_discarded replayed leaked",
    );

    // The flight-recorder drill: leak a fault on purpose and demand a
    // schema-clean bundle. Its deliberate leak does not count against
    // the suite's zero-leak gate.
    let drill = run_postmortem_drill(&Backend::SkyBridge, 0xd811_0001, 120, &flight);
    let read_back = drill.postmortem.as_ref().map(|r| r.read_back());
    a.check(
        "drill bundles missing or not schema-clean",
        "bundles",
        !matches!(read_back, Some(Ok(_))),
        || format!("drill bundle: {read_back:?}"),
    );
    let drill_json = drill.postmortem.as_ref().map_or(Json::Null, receipt_json);

    let doc = Json::obj()
        .field("bench", "chaos")
        .field("requests_per_cell", REQUESTS)
        .field("seeds_per_cell", SEEDS)
        .field("leaked_total", leaked_total)
        .field("incidents", incidents)
        .field("missing_bundles", missing_bundles)
        .field("drill", drill_json)
        .field("serving_cells", Json::Arr(json_rows))
        .field("fs_cells", Json::Arr(fs_json));
    a.json("chaos.json", &doc);
}
