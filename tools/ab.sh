#!/usr/bin/env bash
# A/B the benchmark: a parent revision against the working tree.
#
#   tools/ab.sh PARENT_REV WORKLOAD… [--pairs N] [--seed S] [--seconds S] [--dir DIR]
#
# Builds `benchmark/`'s `sb-benchmark` twice, each into its own target
# directory under DIR (default `${TMPDIR:-/tmp}/sb-ab`): PARENT_REV as
# `git archive` exports it, and this checkout's working tree. The two
# binaries are copied to `DIR/bin/p` and `DIR/bin/c`, paths of one
# length, since `serve_ring`'s `host_rss_mb` moves with the length of
# the binary's path. Then, per workload, it runs N pairs (default 10)
# untraced at `--seconds` (default BENCHMARK.json's `run_seconds`) and
# `--seed` (default 42), alternating which side runs first.
#
# Prints, per workload and end-to-end metric, each side's median
# (quartiles), the change against the parent median, the pairs the
# change won (ties count for neither), and a verdict:
#
#   gain        won ≥ 9/10 of the pairs, medians further apart than the
#               parent's inter-quartile distance (choosing-metrics §8)
#   within      the change's median is no worse than the bound allows
#   WORSE       worse than the parent's median by more than the bound
#   unresolved  the parent's own IQR is wider than the bound, and not
#               every change run beats every parent run
#   tie         `sim_*`: equal in every pair
#
# One more row per workload, `minor_faults`, is each process's minor
# page faults (the child's `getrusage`), reported and never judged: a
# `setup_s` move that the faults move with is glibc heap-trim luck, not
# the change's code.
#
# Exits 1 if a run fails its checks, or if a `sim_*` figure, the output
# digest or the input digest differs between the two sides of any pair.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: $0 PARENT_REV WORKLOAD… [--pairs N] [--seed S] [--seconds S] [--dir DIR]"
pairs=10
seed=42
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
dir="${TMPDIR:-/tmp}/sb-ab"
parent=""
workloads=()
while (($#)); do
    case "$1" in
    --pairs) pairs="$2" && shift ;;
    --seed) seed="$2" && shift ;;
    --seconds) seconds="$2" && shift ;;
    --dir) dir="$2" && shift ;;
    -*) echo "$usage" >&2 && exit 2 ;;
    *) if [ -z "$parent" ]; then parent="$1"; else workloads+=("$1"); fi ;;
    esac
    shift
done
if [ -z "$parent" ] || [ "${#workloads[@]}" -eq 0 ]; then
    echo "$usage" >&2
    exit 2
fi
case "$dir" in
/*) ;;
*) dir="$PWD/$dir" ;;
esac

rev="$(git -C "$root" rev-parse --verify "$parent^{commit}")"
echo "parent $rev, change: the working tree of $root" >&2
rm -rf "$dir/parent-src"
mkdir -p "$dir/parent-src" "$dir/bin"
git -C "$root" archive "$rev" | tar -x -C "$dir/parent-src"
for side in parent change; do
    src="$dir/parent-src"
    [ "$side" = change ] && src="$root"
    echo "building the $side's sb-benchmark" >&2
    CARGO_TARGET_DIR="$dir/target-$side" cargo build --release --offline --locked --quiet \
        --manifest-path "$src/benchmark/Cargo.toml" 1>&2
done
cp "$dir/target-parent/release/sb-benchmark" "$dir/bin/p"
cp "$dir/target-change/release/sb-benchmark" "$dir/bin/c"

exec python3 - "$root/BENCHMARK.json" "$dir" "$pairs" "$seed" "$seconds" "${workloads[@]}" <<'PY'
import json, re, resource, statistics, subprocess, sys

contract, dirpath, pairs, seed, seconds, *workloads = sys.argv[1:]
contract = json.load(open(contract))
known = [w["name"] for w in contract["workloads"]]
for w in workloads:
    if w not in known:
        sys.exit(f"unknown workload {w!r}; the benchmark declares {', '.join(known)}")
metrics = contract["end_to_end"]
failed = []


def run(side, workload):
    cmd = [f"{dirpath}/bin/{side}", "--out", f"{dirpath}/out", "--workload", workload,
           "--seed", seed, "--seconds", seconds, "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    p = subprocess.run(cmd, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if p.returncode != 0 or not p.stdout.strip():
        sys.exit(f"{workload}: {side} exited {p.returncode}\n{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        failed.append(f"{workload}: the {side} run failed its output checks")
    digests = re.search(r"output digest ([0-9a-f]+)\s+input digest ([0-9a-f]+)", p.stderr)
    values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
    values["minor_faults"] = faults
    return values, digests.groups() if digests else None


def spread(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def cell(xs):
    q2, q1, q3 = spread(xs)
    return f"{q2:.6g} ({q1:.6g}–{q3:.6g})"


print(f"seed {seed}, --seconds {seconds}, {pairs} pairs per workload; median (quartiles)")
header = ("workload", "metric", "parent", "change", "Δ median", "won", "verdict")
rows = [header]
for w in workloads:
    runs = {"p": [], "c": []}
    for i in range(int(pairs)):
        for side in ("p", "c") if i % 2 == 0 else ("c", "p"):
            runs[side].append(run(side, w))
        (pv, pd), (cv, cd) = runs["p"][-1], runs["c"][-1]
        if pd != cd:
            failed.append(f"{w} pair {i + 1}: digests (output, input) {pd} vs {cd}")
        for m in metrics:
            if m["name"].startswith("sim_") and pv[m["name"]] != cv[m["name"]]:
                failed.append(f"{w} pair {i + 1}: {m['name']} {pv[m['name']]} vs {cv[m['name']]}")
        print(f"  {w} pair {i + 1}/{pairs} done", file=sys.stderr)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [v[name] for v, _ in runs["p"]]
        c = [v[name] for v, _ in runs["c"]]
        better = lambda a, b: a < b if lower else a > b
        won = sum(better(cv, pv) for pv, cv in zip(p, c))
        (mp, q1, q3), mc = spread(p), spread(c)[0]
        delta = (mc - mp) / mp if mp else 0.0
        worse = better(mp, mc)
        if name.startswith("sim_") and p == c:
            verdict = "tie"
        elif won >= 0.9 * len(p) and abs(mc - mp) > q3 - q1 and better(mc, mp):
            verdict = f"gain: medians {abs(mc - mp):.6g} apart, parent IQR {q3 - q1:.6g}"
        elif mp and (q3 - q1) / mp > m["bound"] and not all(better(x, y) for x in c for y in p):
            verdict = f"unresolved: parent IQR {100 * (q3 - q1) / mp:.1f} % > {100 * m['bound']:g} % bound"
        elif worse and abs(delta) > m["bound"]:
            verdict = f"WORSE: beyond the {100 * m['bound']:g} % bound"
        else:
            verdict = f"within the {100 * m['bound']:g} % bound"
        rows.append((w, name, cell(p), cell(c), f"{100 * delta:+.1f} %", f"{won}/{len(p)}", verdict))
    p = [v["minor_faults"] for v, _ in runs["p"]]
    c = [v["minor_faults"] for v, _ in runs["c"]]
    mp, mc = spread(p)[0], spread(c)[0]
    won = sum(cv < pv for pv, cv in zip(p, c))
    delta = f"{100 * (mc - mp) / mp:+.1f} %" if mp else "-"
    rows.append((w, "minor_faults", cell(p), cell(c), delta, f"{won}/{len(p)}", "reported, not judged"))
widths = [max(len(r[i]) for r in rows) for i in range(len(header) - 1)]
for r in rows:
    print("  ".join(f"{x:<{widths[i]}}" for i, x in enumerate(r[:-1])) + "  " + r[-1])
for f in failed:
    print(f"FAIL: {f}", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
