//! `sb-benchmark`: run one workload in this process, or the whole suite
//! one child process per workload.
//!
//! ```text
//! sb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--tsv FILE]
//! sb-benchmark [--seed N] [--seconds S] [--trace 0|1]      # the suite
//! sb-benchmark --repeat [--seed N] [--seconds S]           # the suite twice, compared
//! sb-benchmark --describe                                  # print BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result as one JSON object;
//! the human table goes to standard error. A failed output check makes
//! the exit code non-zero.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sb_benchmark::metrics::{Clock, END_TO_END};
use sb_benchmark::probes::Scale;
use sb_benchmark::runner::{self, Report};
use sb_benchmark::workloads::Kind;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: bool,
    out: PathBuf,
    tsv: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: sb-benchmark [--workload {}] [--seed N] [--seconds 1..60] [--trace 0|1 | --traced] [--repeat] [--out DIR] [--tsv FILE]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: sb_benchmark::contract::RUN_SECONDS,
        traced: false,
        repeat: false,
        out: PathBuf::from("benchmark/out"),
        tsv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--traced" => a.traced = true,
            "--repeat" => a.repeat = true,
            "--describe" => {
                print!("{}", sb_benchmark::contract::benchmark_json());
                std::process::exit(0);
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--tsv" => a.tsv = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(a)
}

fn print_report(r: &Report, traced: bool) {
    eprintln!(
        "\n=== {} (seed {}, {}) ===",
        r.kind.name(),
        r.seed,
        if traced {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    eprintln!("  why: {}", r.kind.why());
    for n in &r.notes {
        eprintln!("  {n}");
    }
    eprint!("{}", r.values.table());
    for c in &r.checks {
        eprintln!(
            "  check {:<4} {} ({})",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    eprintln!(
        "  attempted {}  failed {}  output digest {:016x}  input digest {:016x}",
        r.attempted, r.failed, r.digest.0, r.input_digest.0
    );
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(kind: Kind, a: &Args, start: Instant) -> Result<bool, String> {
    let size = kind.size(a.seconds);
    let report = if a.traced {
        runner::traced(kind, a.seed, size.quarter(), Scale(1))
    } else {
        runner::untraced(kind, a.seed, size, start)
    };
    print_report(&report, a.traced);
    if let Some(trace) = &report.trace {
        let path = a.out.join(format!("trace_{}.json", kind.name()));
        write_file(&path, &trace.to_json(kind.name()))?;
        eprintln!("  wrote {}", path.display());
    }
    if let Some(path) = &a.tsv {
        let mut tsv = report.values.tsv();
        tsv.push_str(&format!("#digest\t{:016x}\n", report.digest.0));
        write_file(path, &tsv)?;
    }
    let correct = report.correct();
    println!(
        "{}",
        report
            .values
            .result_line(correct, report.attempted, report.failed)
    );
    Ok(correct)
}

/// Runs every workload as a child process (so `host_rss_mb` is per
/// workload), forwarding each child's result line. With `tsv_tag`, each
/// child also leaves `<out>/<tag>_<workload>.tsv`.
fn run_suite(a: &Args, tsv_tag: Option<&str>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(tag) = tsv_tag {
            cmd.arg("--tsv")
                .arg(a.out.join(format!("{tag}_{}.tsv", kind.name())));
        }
        let out = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        println!("{{\"workload\": \"{}\", \"result\": {line}}}", kind.name());
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn read_tsv(path: &Path) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some((f.next()?.to_string(), f.next()?.to_string()))
        })
        .collect())
}

/// The suite twice on the same build and seed. Simulated metrics and
/// output digests must be equal to the last bit, or the exit code is
/// non-zero. Host metrics are compared against their regression bounds
/// and flagged `over`, but two single runs on a shared host cannot gate
/// anything (one process's 2 ms set-up reads 45% off the next's), so
/// they do not change the exit code; the bounds are judged on medians
/// of ten runs.
fn run_repeat(a: &Args) -> Result<bool, String> {
    let mut ok = run_suite(a, Some("repeat_a"))?;
    ok &= run_suite(a, Some("repeat_b"))?;
    let mut over = 0;
    eprintln!("\n=== repeat verdict (seed {}) ===", a.seed);
    eprintln!(
        "  {:<11} {:<18} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for kind in Kind::ALL {
        let first = read_tsv(&a.out.join(format!("repeat_a_{}.tsv", kind.name())))?;
        let second = read_tsv(&a.out.join(format!("repeat_b_{}.tsv", kind.name())))?;
        for ((name, x), (_, y)) in first.iter().zip(&second) {
            let metric = END_TO_END.iter().find(|m| m.name == name);
            let exact = metric.is_none_or(|m| m.clock == Clock::Sim);
            let (change, verdict) = if exact {
                ok &= x == y;
                (String::from("exact"), if x == y { "ok" } else { "FAIL" })
            } else {
                let (fx, fy): (f64, f64) = (
                    x.parse().map_err(|e| format!("{name}: {e}"))?,
                    y.parse().map_err(|e| format!("{name}: {e}"))?,
                );
                let within = (fy - fx).abs() / fx <= metric.map_or(0.0, |m| m.bound);
                over += usize::from(!within);
                (
                    format!("{:+.1}%", (fy / fx - 1.0) * 100.0),
                    if within { "ok" } else { "over" },
                )
            };
            eprintln!(
                "  {:<11} {:<18} {:>18} {:>18} {:>9}  {verdict}",
                kind.name(),
                name,
                x,
                y,
                change
            );
        }
    }
    eprintln!(
        "  simulated metrics and digests: {}; host rows over their bound: {over}",
        if ok { "identical" } else { "DIFFER" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.repeat, args.workload) {
        (true, _) => run_repeat(&args),
        (false, Some(kind)) => run_one(kind, &args, start),
        (false, None) => run_suite(&args, None),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: an output check did not hold");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
