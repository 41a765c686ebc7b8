//! One workload, one process: the untraced run that yields the
//! end-to-end metrics and the traced run that yields the per-layer
//! ones.

use std::time::Instant;

use crate::host::{at_reference_speed, unit_sample, vm_hwm_mib, Digest, UNIT_REF_NS};
use crate::metrics::{median, quantile, Values, END_TO_END, PER_LAYER};
use crate::probes;
use crate::timed::Trace;
use crate::workloads::{setup, Check, Kind, Segment, SimFigures, Size};

/// Set-ups per untraced run: at least [`SETUPS_MIN`], then more until
/// they have taken [`SETUPS_SHARE`] of the run's nominal seconds
/// together (1.5 s of a `--seconds 10` run) or [`SETUPS_MAX`] is
/// reached. `setup_s` is their median — a 3 ms boot needs dozens of
/// samples to repeat, a 180 ms graph preload gets eight or nine.
pub const SETUPS_MIN: usize = 5;
/// See [`SETUPS_MIN`].
pub const SETUPS_MAX: usize = 60;
/// See [`SETUPS_MIN`].
pub const SETUPS_SHARE: f64 = 0.15;

/// Everything one process measured.
pub struct Report {
    /// The workload.
    pub kind: Kind,
    /// The seed every generator was derived from.
    pub seed: u64,
    /// The metric values (end-to-end or per-layer catalogue).
    pub values: Values,
    /// Operations attempted in the measured run.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks (all must hold).
    pub checks: Vec<Check>,
    /// The simulated figures (also inside `values` for untraced runs).
    pub sim: SimFigures,
    /// Digest of the program's outputs.
    pub digest: Digest,
    /// Digest of the generated inputs.
    pub input_digest: Digest,
    /// The span log of a traced run.
    pub trace: Option<Trace>,
    /// Extra lines for the human table.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn sim_checks(seg: &Segment, size: Size) -> Vec<Check> {
    vec![
        Check::new(
            "sim figures are finite and positive",
            seg.sim.cycles_per_op.is_finite()
                && seg.sim.cycles_per_op > 0.0
                && seg.sim.p50 > 0
                && seg.sim.p99 >= seg.sim.p50,
            format!("{:?}", seg.sim),
        ),
        Check::eq(
            "one host sample per chunk",
            seg.chunk_ns.len() as u64,
            size.chunks(),
        ),
    ]
}

/// The untraced run: repeated timed set-ups (the last one is
/// measured), one run of `size`, the end-to-end metrics.
pub fn untraced(kind: Kind, seed: u64, size: Size, process_start: Instant) -> Report {
    let prelude = process_start.elapsed().as_secs_f64();
    let mut setups = Vec::with_capacity(SETUPS_MAX);
    let budget_s = SETUPS_SHARE * size.ops as f64 / kind.rate().0 as f64;
    let mut raw_total = 0.0;
    let mut prepared = None;
    while setups.len() < SETUPS_MIN || (setups.len() < SETUPS_MAX && raw_total < budget_s) {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(kind, seed, None));
        let raw = t.elapsed().as_secs_f64();
        raw_total += raw;
        setups.push(at_reference_speed(raw, unit_sample()));
    }
    let seg = prepared.expect("at least one set-up").run(size);

    let mut values = Values::new(END_TO_END);
    values.set("setup_s", prelude + median(&setups));
    values.set("host_ns_per_op", seg.host_ns_per_op());
    values.set("host_rss_mb", vm_hwm_mib());
    values.set("sim_cycles_per_op", seg.sim.cycles_per_op);
    values.set("sim_p50_cycles", seg.sim.p50 as f64);
    values.set("sim_p99_cycles", seg.sim.p99 as f64);
    values.set("served_share", seg.sim.served_share);

    let notes = vec![
        format!(
            "{} ops in {} chunks of {}; measured run {:.2} s",
            size.ops,
            seg.chunk_ns.len(),
            size.chunk,
            seg.wall_ns as f64 / 1e9
        ),
        format!(
            "raw wall ns/op over chunks: p25 {:.1}  p50 {:.1}  p95 {:.1}",
            quantile(&seg.chunk_ns, 0.25),
            median(&seg.chunk_ns),
            quantile(&seg.chunk_ns, 0.95)
        ),
        format!(
            "host unit {:.2} ns (median over chunks; reference {UNIT_REF_NS} ns); host times below are at reference speed",
            median(&seg.unit_ns),
        ),
        format!(
            "{} set-ups at reference speed: min {:.4} s  median {:.4} s  max {:.4} s",
            setups.len(),
            quantile(&setups, 0.0),
            median(&setups),
            quantile(&setups, 1.0)
        ),
    ];
    let mut checks = sim_checks(&seg, size);
    checks.extend(seg.checks);
    Report {
        kind,
        seed,
        values,
        attempted: seg.attempted,
        failed: seg.failed,
        checks,
        sim: seg.sim,
        digest: seg.digest,
        input_digest: seg.input_digest,
        trace: None,
        notes,
    }
}

/// The traced run: an untraced reference and a traced run of the same
/// `size` and seed (their simulated figures and digests must agree to
/// the last bit — the decorators change nothing modelled), then the
/// per-layer probes.
pub fn traced(kind: Kind, seed: u64, size: Size, scale: probes::Scale) -> Report {
    let reference = setup(kind, seed, None).run(size);
    let trace = Trace::new();
    let seg = setup(kind, seed, Some(&trace)).run(size);

    let mut values = Values::new(PER_LAYER);
    probes::run(&mut values, scale, seed);
    // Span totals are raw wall ns; bring them to reference speed with
    // the traced run's median unit, like every other host figure.
    let traced_unit = median(&seg.unit_ns);
    for (name, v) in &seg.layer {
        if name.ends_with(".host_ns") {
            values.set(name, at_reference_speed(*v, traced_unit));
        } else {
            values.set(name, *v);
        }
    }
    // Layers that do no work on this workload read 0.
    for prefix in [
        "pmu.",
        "phase.",
        "runtime.",
        "graph.",
        "db.",
        "transport.call_self",
        "observe.events_dropped",
    ] {
        values.not_applicable(prefix);
    }
    let host = reference.host_ns_per_op();
    let traced_host = seg.host_ns_per_op();
    values.set("trace.overhead_pct", (traced_host / host - 1.0) * 100.0);
    let attributed = trace.attributed_ns() as f64;
    values.set(
        "trace.unattributed_pct",
        (seg.wall_ns as f64 - attributed).max(0.0) / seg.wall_ns as f64 * 100.0,
    );
    values.set("host.chunks", reference.chunk_ns.len() as f64);
    values.set("host.chunk_p50.host_ns", median(&reference.chunk_ns));
    values.set(
        "host.chunk_p95.host_ns",
        quantile(&reference.chunk_ns, 0.95),
    );
    values.set("host.unit_ns", median(&reference.unit_ns));
    values.set("host.units_per_op", host / UNIT_REF_NS);
    values.set("host.ns_per_sim_cycle", host / reference.sim.cycles_per_op);

    let mut checks = sim_checks(&seg, size);
    checks.push(Check::new(
        "traced and untraced runs agree on every simulated figure",
        seg.sim == reference.sim,
        format!("{:?} vs {:?}", seg.sim, reference.sim),
    ));
    checks.push(Check::eq(
        "traced and untraced runs agree on the output digest",
        seg.digest.0,
        reference.digest.0,
    ));
    for (run, run_checks) in [("untraced", reference.checks), ("traced", seg.checks)] {
        checks.extend(run_checks.into_iter().map(|c| Check {
            name: format!("{run}: {}", c.name),
            ..c
        }));
    }

    // Shares are of the workload's own time: the unit samples between
    // chunks are the benchmark's.
    let wall = (seg.wall_ns - trace.get("bench.unit").total_ns) as f64;
    let mut notes = vec![format!(
        "{} ops traced, {} spans ({} written); untraced reference {:.1} ns/op, traced {:.1} ns/op",
        size.ops,
        trace.spans_total(),
        trace.spans_total().min(crate::timed::SPANS_KEPT as u64),
        host,
        traced_host
    )];
    for t in trace.totals() {
        notes.push(format!(
            "self time {:<22} {:<13} {:>5.1}% of the run ({} spans)",
            t.name,
            t.layer,
            t.self_ns as f64 / wall * 100.0,
            t.count
        ));
    }
    Report {
        kind,
        seed,
        values,
        attempted: seg.attempted,
        failed: seg.failed,
        checks,
        sim: seg.sim,
        digest: seg.digest,
        input_digest: seg.input_digest,
        trace: Some(trace),
        notes,
    }
}
