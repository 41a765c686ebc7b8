//! Per-crate code-size budget, and one for the root package's `src/`.
//!
//! A small kernel is a security property (the paper's Rootkernel is
//! ~1.5 KLoC for that reason), and lines that a simplification removed
//! should stay removed unless someone decides otherwise. Each crate's
//! non-test code lines — everything in `src/**/*.rs` before the first
//! top-level `#[cfg(test)]`, blank and `//` lines excluded — must stay
//! under the ceiling checked in here. Each ceiling is the count when its
//! row was last touched, rounded up to the next 10: growing past one
//! means raising the number in the same change, where a reviewer sees
//! it.

use std::fs;
use std::path::{Path, PathBuf};

/// The paper's bound on the Rootkernel (§5: "about 1.5 KLoC").
const PAPER_ROOTKERNEL_LOC: usize = 1_500;

/// `(directory under crates/, ceiling in non-test code lines)`.
const BUDGET: &[(&str, usize)] = &[
    // 2384 once the seven gated bins became sweep entries of one
    // registry behind one bin, each reporting a failure through
    // `Artefact::check` instead of a counter, an `eprintln!` and a gate
    // of its own, and each showing its rows from one key string; 2332
    // once `run_stats_json` moved down into `sb-runtime`, so a
    // postmortem bundle renders a run with the results files' renderer;
    // 2306 once the sweeps calibrated through `scenarios::runtime` and
    // the SQLite figures read the kernels' names from `Personality::all`.
    ("bench", 2_310),
    // 1218 once the direct call and the batched crossing shared one
    // set of crossing steps, rounded up to the next 10.
    ("core", 1_220),
    ("db", 1_200),
    ("faultplane", 400),
    // 1028 once the block device lent its block instead of copying it
    // and `bmap`, `readi` and `writei` read one inode field, not the
    // whole inode; rounded up to the next 10.
    ("fs", 1_030),
    // 960 once the commit log became one delta/varint byte stream (about
    // 3 B an entry instead of 24: the encoder, the decoder and the LEB128
    // pair cost 70 lines net of the deleted `entries()`) and a restored
    // cell kept its value length (1 line); 954 once the LEB128 pair moved
    // to `sb-observe` (17 lines) and a restored cell's log continued the
    // live numbering (11 lines); 811 once the graph became the one fixed
    // chain every caller builds (the edge router and its route type,
    // five `GraphError` variants, the role and commit-op opcodes and
    // `assemble` went).
    ("graph", 820),
    // 1067 with the walk memo (PR 20), rounded up to the next 10.
    ("mem", 1_070),
    ("microkernel", 1_050),
    // 1367 once the cycle sampler went and the exact phase fold drew the
    // flamegraphs; 1387 once the LEB128 pair moved in from `sb-graph`
    // (20 lines with its module and re-export), so the commit log and
    // the latency tracks share one codec; 1164 once the metrics store
    // and the histogram's ring of tagged samples, which no run read,
    // went; 1155 once the callerless `Log2Histogram::merge` went; 1148
    // once one span pass (`span.rs`) paired and nested every lane for
    // the phase fold, the Chrome export and the sentinel, and
    // `validate_nesting` / `validate_recorder_nesting` went; rounded up
    // to the next 10.
    ("observe", 1_150),
    ("rewriter", 1_950),
    ("rootkernel", 450),
    // 1549 once the load generator drew its requests and arrivals a
    // block at a time (two callerless APIs deleted to pay part of it);
    // 1588 once `run_stats_json` moved in from `sb-bench` (52 lines) and
    // the tagged latency pushes went; rounded up to the next 10.
    ("runtime", 1_590),
    // 738 once a bundle's flamegraph became the exact fold of the events
    // it holds; 660 once a bundle kept each fact once (no metrics
    // snapshot, no SLO latency histogram or `publish`); 562 once the
    // trace forest and the bundle read the span pass of `sb-observe`
    // instead of pairing Begin/End and nesting intervals themselves.
    ("sentinel", 570),
    // 874 with the L1i run memo (PR 19) and `mem_access_each` (PR 20),
    // once the callerless `reset_stats` of `Cache` and `Tlb` went,
    // rounded up to the next 10.
    ("sim", 880),
    // 1260 with the lane envelope and `TrapIpcTransport` (moved from
    // `sb-runtime`), once the callerless `RegImage` and
    // `Request::reg_image` went; 1231 once the `opcode` module, stamped
    // on no wire, went; rounded up to the next 10.
    ("transport", 1_240),
    // 259 once the Zipfian's tail rank became a proven multiply chain
    // with libm's `pow` as its fallback and the callerless
    // `Workload::load_keys` went, rounded up to the next 10.
    ("ycsb", 260),
];

/// The ceiling of the root package's `src/` (the scenarios), under the
/// same rule: 2034 once the KV pipeline's encryption server said which
/// way each message crosses it; 2015 once a chaos bundle stopped
/// copying the run into a metrics registry; 1930 once the serving
/// workload was defined once and the scenario knob, the ring
/// and closed-loop runners, the second calibrator and the chaos-cell
/// variants it fanned out into went; rounded up to the next 10.
const ROOT_SRC: usize = 1_930;

/// Non-test code lines of one source text.
fn code_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Every `.rs` file under `dir`, with its text.
fn sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(sources(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((path, text));
        }
    }
    out
}

/// Non-test code lines of every `.rs` file under `dir`.
fn tree_lines(dir: &Path) -> usize {
    sources(dir).iter().map(|(_, text)| code_lines(text)).sum()
}

#[test]
fn every_crate_stays_under_its_code_line_ceiling() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut on_disk: Vec<String> = fs::read_dir(&crates)
        .expect("crates/")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    on_disk.sort();
    let budgeted: Vec<&str> = BUDGET.iter().map(|&(name, _)| name).collect();
    assert_eq!(on_disk, budgeted, "every crate has exactly one budget row");

    let mut over = Vec::new();
    for &(name, ceiling) in BUDGET {
        let lines = tree_lines(&crates.join(name).join("src"));
        if lines > ceiling {
            over.push(format!("{name}: {lines} code lines > ceiling {ceiling}"));
        }
        if name == "rootkernel" {
            assert!(
                ceiling <= PAPER_ROOTKERNEL_LOC,
                "the Rootkernel's ceiling may not pass the paper's {PAPER_ROOTKERNEL_LOC} lines"
            );
        }
    }
    let root_src = tree_lines(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"));
    if root_src > ROOT_SRC {
        over.push(format!("src: {root_src} code lines > ceiling {ROOT_SRC}"));
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

/// The text of `source` before its first top-level `#[cfg(test)]`.
fn non_test(source: &str) -> &str {
    &source[..source.find("\n#[cfg(test)]").unwrap_or(source.len())]
}

/// `sb-bench` is the harness of the simulated clock: the host clock has
/// one ledger (`benchmark/` + `results/BENCH_history.jsonl`). One bin
/// runs one registry and ends through the library's one verdict path; a
/// sweep reports a failure only through `Artefact::check` or a gate, no
/// `assert!`, `panic!` or `eprintln!` that no gate counts. Every run size
/// is a constant of its entry, so the one environment read is the
/// `SB_TRACE` accessor in `lib.rs`, and `tools/regen_results.sh` runs
/// the bin with no variable set.
#[test]
fn the_bench_crate_reads_one_clock_and_exits_one_way() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = root.join("crates/bench/src");
    let files = sources(&src);
    let mentioning = |needle: &str| -> Vec<&Path> {
        files
            .iter()
            .filter(|(_, text)| text.contains(needle))
            .map(|(path, _)| path.strip_prefix(&src).expect("under src/"))
            .collect()
    };
    assert_eq!(
        mentioning("std::time"),
        Vec::<&Path>::new(),
        "host-clock measurements belong in benchmark/, not in sb-bench"
    );
    assert_eq!(
        mentioning("process::exit("),
        [Path::new("gate.rs")],
        "only gate::die may exit the process"
    );
    let bins = fs::read_dir(src.join("bin")).expect("src/bin").count();
    assert_eq!(bins, 1, "one bin, `sb-bench`, runs every registry entry");
    assert_eq!(
        mentioning(": &[Entry] = &["),
        [Path::new("registry.rs")],
        "one registry lists every entry"
    );
    // The bin and a sweep show the rows they write with
    // `Artefact::rows`, never a second, hand-built copy of them; a paper
    // experiment places cells in its `Artefact`, and only
    // `Artefact::table` (in `paper/mod.rs`) lays them out. Only the two
    // table drawers hold a grid of strings.
    for (path, text) in &files {
        let file = path.strip_prefix(&src).expect("under src/");
        let code = non_test(text);
        let runs_entries = file.starts_with("bin") || file.starts_with("sweep");
        for needle in ["print_table", "table("] {
            assert!(
                !(runs_entries && code.contains(needle)),
                "{}: `{needle}` builds a table by hand; show the row `Json` with `Artefact::rows`",
                file.display()
            );
        }
        let drawn_by_hand = code
            .match_indices("table(")
            .any(|(at, _)| !code[..at].ends_with('.'));
        assert!(
            !(file.starts_with("paper") && file != Path::new("paper/mod.rs") && drawn_by_hand),
            "{}: `table(` lays a paper artefact out by hand; put its cells and call `Artefact::table`",
            file.display()
        );
        assert!(
            file == Path::new("lib.rs")
                || file == Path::new("gate.rs")
                || !code.contains("Vec<Vec<String>>"),
            "{}: a `Vec<Vec<String>>` is a hand-built table; put cells or show the row `Json`",
            file.display()
        );
        for macro_call in ["assert!", "assert_eq!", "assert_ne!", "panic!", "eprintln!"] {
            assert!(
                !(runs_entries && code.contains(macro_call)),
                "{}: `{macro_call}` reports a failure no gate counts; use `Artefact::check`",
                file.display()
            );
        }
    }

    // Every environment read, as (file, variable): a read whose name is
    // not a string literal shows as `?`.
    let mut reads = Vec::new();
    for (path, text) in &files {
        for (at, _) in non_test(text).match_indices("env::var") {
            let call = &text[at..];
            let name = call[call.find('(').expect("a call") + 1..]
                .strip_prefix('"')
                .and_then(|rest| rest.split('"').next())
                .unwrap_or("?");
            let file = path.strip_prefix(&src).expect("under src/");
            reads.push((file.to_path_buf(), name));
        }
    }
    // `SB_TRACE` stays because it picks which personality
    // `runtime_scaling` traces for Perfetto — what to look at, not how
    // much to run — so nothing that regenerates or checks a file sets it.
    assert_eq!(
        reads,
        [(PathBuf::from("lib.rs"), "SB_TRACE")],
        "the one environment read is the SB_TRACE accessor; make a run size a constant"
    );

    let mut setters = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    for entry in fs::read_dir(root.join("tools")).expect("tools/") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|x| x == "sh") {
            setters += &fs::read_to_string(&path).expect("readable script");
        }
    }
    assert!(
        !setters.contains("SB_TRACE="),
        "SB_TRACE is set by CI or a tools/ script: no committed file may depend on it"
    );

    let regen = fs::read_to_string(root.join("tools/regen_results.sh")).expect("regen script");
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let assignments: Vec<&str> = regen
        .match_indices("SB_")
        .map(|(at, _)| &regen[at..])
        .filter(|rest| rest.trim_start_matches(ident).starts_with('='))
        .filter_map(|rest| rest.split('=').next())
        .collect();
    assert!(
        assignments.is_empty(),
        "tools/regen_results.sh sets {assignments:?}: each entry runs at the size its constants record"
    );
}

/// Every `.rs` file of the workspace, the standalone `benchmark/` package
/// included (build output excluded).
fn workspace_sources(root: &Path) -> Vec<(PathBuf, String)> {
    [
        "crates",
        "src",
        "tests",
        "examples",
        "vendor",
        "benchmark/src",
        "benchmark/tests",
    ]
    .iter()
    .flat_map(|dir| sources(&root.join(dir)))
    .collect()
}

/// Whether `text` declares `item` (`enum Json`, `fn validate_json`) at
/// the start of a line, public or not.
fn declares(text: &str, item: &str) -> bool {
    text.lines().any(|l| {
        let l = l.trim_start();
        let l = l.strip_prefix("pub ").unwrap_or(l);
        l.strip_prefix(item)
            .is_some_and(|rest| rest.starts_with([' ', '{', '(', '<']))
    })
}

/// One JSON type and one host-clock harness: `sb_observe::Json` is the
/// only JSON value (the writers it replaced and the syntax-only
/// validator stay gone), and nothing declares a `[[bench]]` target or
/// vendors a bench framework beside `benchmark/`.
#[test]
fn one_json_type_and_no_second_host_clock_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_sources(root);
    let declaring = |item: &str| -> Vec<&Path> {
        files
            .iter()
            .filter(|(_, text)| declares(text, item))
            .map(|(path, _)| path.strip_prefix(root).expect("under the root"))
            .collect()
    };
    assert_eq!(
        declaring("enum Json"),
        [Path::new("crates/observe/src/json.rs")],
        "`sb_observe::Json` is the one JSON value"
    );
    assert_eq!(
        declaring("fn validate_json"),
        Vec::<&Path>::new(),
        "read JSON with `Json::parse`"
    );

    let mut vendored: Vec<String> = fs::read_dir(root.join("vendor"))
        .expect("vendor/")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    vendored.sort();
    assert_eq!(vendored, ["proptest", "rand"]);

    let manifests = ["crates", "vendor"]
        .iter()
        .flat_map(|dir| fs::read_dir(root.join(dir)).expect("directory"))
        .map(|e| e.expect("directory entry").path().join("Cargo.toml"))
        .chain([root.join("Cargo.toml"), root.join("benchmark/Cargo.toml")]);
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("Cargo.toml");
        assert!(
            !text.contains("[[bench]]") && !text.contains("criterion"),
            "{} declares a bench target: the host clock's one harness is benchmark/",
            manifest.display()
        );
    }
}

/// One profile, and it is exact: the flamegraphs are folded from the
/// phase attribution (`sb_observe::phase`), so the cycle sampler that
/// kept a second, sampled copy of the same numbers — its module, its
/// sample type, its arming call and the per-call tenant hook that fed
/// it — stays gone.
#[test]
fn one_exact_profile_and_no_sampler() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_sources(root);
    for item in ["fn enable_sampling", "fn note_tenant", "struct Sample"] {
        let declaring: Vec<&Path> = files
            .iter()
            .filter(|(_, text)| declares(text, item))
            .map(|(path, _)| path.as_path())
            .collect();
        assert!(
            declaring.is_empty(),
            "`{item}` is declared again in {declaring:?}: fold flamegraphs from the exact profile"
        );
    }
    assert!(
        !root.join("crates/observe/src/profiler.rs").exists(),
        "crates/observe/src/profiler.rs is back"
    );
}

/// One lane envelope for every wire-staging transport: the stale-reply
/// seam is declared once, only `sb_transport::Envelope` restamps a
/// reply's corr (outside `wire.rs`, which defines the restamp, and
/// tests), and the trap personalities live in `sb-transport` beside MPK.
#[test]
fn one_lane_envelope_for_every_wire_staging_transport() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_sources(root);
    let declaring = |item: &str| -> Vec<&Path> {
        files
            .iter()
            .filter(|(_, text)| declares(text, item))
            .map(|(path, _)| path.strip_prefix(root).expect("under the root"))
            .collect()
    };
    let seams = declaring("fn poison_next_reply_corr");
    assert!(
        seams.len() <= 1,
        "the stale-reply seam is declared more than once: {seams:?}"
    );
    assert_eq!(
        declaring("struct TrapIpcTransport"),
        [Path::new("crates/transport/src/trap.rs")],
        "the trap personalities live in sb-transport"
    );

    let restamping: Vec<&Path> = files
        .iter()
        .map(|(path, text)| (path.strip_prefix(root).expect("under the root"), text))
        .filter(|(path, _)| !path.iter().any(|dir| dir == "tests"))
        .filter(|(path, _)| *path != Path::new("crates/transport/src/wire.rs"))
        .filter(|(_, text)| non_test(text).contains("set_reply_corr("))
        .map(|(path, _)| path)
        .collect();
    assert_eq!(
        restamping,
        [Path::new("crates/transport/src/envelope.rs")],
        "only the envelope restamps a reply's corr"
    );
}

/// Every non-test file under `crates/` and `src/` (each crate's
/// `tests/` excluded), by its path from the root, with its text.
fn program_sources(root: &Path) -> Vec<(PathBuf, String)> {
    ["crates", "src"]
        .iter()
        .flat_map(|dir| sources(&root.join(dir)))
        .map(|(path, text)| {
            let path = path.strip_prefix(root).expect("under the root");
            (path.to_path_buf(), text)
        })
        .filter(|(path, _)| !path.iter().any(|dir| dir == "tests"))
        .collect()
}

/// One span pass: only `sb_observe::span` turns a lane's events into
/// spans, so the phase fold, the Chrome export, the trace forest and the
/// postmortem cannot pair Begin/End or count a loss four ways again. Any
/// non-test code under `crates/` or `src/` that matches on
/// `EventKind::End(` fails here, except the pass itself, the recorder's
/// emitter and the bundle's raw event rendering.
#[test]
fn one_span_pass_pairs_begin_and_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut matching: Vec<PathBuf> = program_sources(root)
        .into_iter()
        .filter(|(_, text)| non_test(text).contains("EventKind::End("))
        .map(|(path, _)| path)
        .collect();
    matching.sort();
    assert_eq!(
        matching,
        [
            Path::new("crates/observe/src/ring.rs"),
            Path::new("crates/observe/src/span.rs"),
            Path::new("crates/sentinel/src/postmortem.rs"),
        ],
        "Begin/End are paired in sb_observe::span_pass alone"
    );
}

/// One serving workload: `scenarios::runtime` defines the KV stream once
/// (`workload`, `PAYLOAD`, `request_factory`), so no other non-test code
/// under `crates/` or `src/` spells it `ycsb_a(10_000, 64)` by hand,
/// however its digits are grouped or spaced.
#[test]
fn one_serving_workload() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spelled = |text: &str| -> bool {
        let squeezed: String = non_test(text)
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_')
            .collect();
        squeezed.contains("ycsba(10000,64)")
    };
    let matching: Vec<PathBuf> = program_sources(root)
        .into_iter()
        .filter(|(path, text)| path != Path::new("src/scenarios/runtime.rs") && spelled(text))
        .map(|(path, _)| path)
        .collect();
    assert_eq!(
        matching,
        Vec::<PathBuf>::new(),
        "the KV serving workload is `scenarios::runtime::workload()`; read it there"
    );
}

/// One SkyBridge crossing: the direct call and the batched ring crossing
/// are built from the same private steps, so each fault injection, the
/// return trampoline's fetch and the handler's dispatch appear once in
/// `sb-core`'s non-test code. A second copy of the crossing fails here.
#[test]
fn one_copy_of_each_crossing_step() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let files = sources(&src);
    let count = |needle: &str| -> usize {
        files
            .iter()
            .map(|(_, text)| non_test(text).matches(needle).count())
            .sum()
    };
    for step in [
        "fire(FaultPoint::KeyCorrupt)",
        "fire(FaultPoint::HandlerPanic)",
        "fire(FaultPoint::HandlerHang)",
        "TRAMPOLINE_FETCH / 2",
    ] {
        assert_eq!(
            count(step),
            1,
            "`{step}` must appear once in crates/core/src"
        );
    }
    // `.handlers[<index>].take()`, whatever the index is called.
    let dispatches: usize = files
        .iter()
        .map(|(_, text)| {
            let text = non_test(text);
            text.match_indices(".handlers[")
                .filter(|&(at, _)| {
                    let rest = &text[at..];
                    rest.find(']')
                        .is_some_and(|end| rest[end + 1..].starts_with(".take()"))
                })
                .count()
        })
        .sum();
    assert_eq!(
        dispatches, 1,
        "`.handlers[…].take()` must appear once in crates/core/src"
    );
}
