#!/usr/bin/env bash
# Append the benchmark's end-to-end metrics to the committed trajectory.
#
#   tools/bench_history.sh [--seed N] [--seconds S] [--commit LABEL] [--traced]
#
# Runs `benchmark/run.sh` once per workload declared in BENCHMARK.json
# (untraced: the end-to-end metrics) and appends one JSON line per
# workload to results/BENCH_history.jsonl:
#
#   {"commit", "workload", "seed", "seconds", <the seven end-to-end metrics>}
#
# With `--traced` the runs are traced instead and each row carries the
# per-layer metrics BENCHMARK.json declares, so the rung that moved sits
# next to the end-to-end row it moved:
#
#   {"commit", "workload", "seed", "seconds", "traced": true, <the per-layer metrics>}
#
# `commit` defaults to the short hash of HEAD, suffixed `+dirty` when the
# working tree differs from it. Rows marked `"backfilled": true` were
# transcribed from the EXPERIMENTS.md "Host clock" tables (medians of
# ten runs): the PRs that predate this script, and a parent re-measured
# on the host a later PR's rows were taken on. Host metrics are at
# the benchmark's reference speed but still carry this shared host's
# run-to-run spread: read the file as a trajectory, and use ten
# alternating pairs (EXPERIMENTS.md) to judge a single step.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
history="$root/results/BENCH_history.jsonl"
seed=42
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
commit=""
traced=0
while (($#)); do
    case "$1" in
    --seed) seed="$2" && shift ;;
    --seconds) seconds="$2" && shift ;;
    --commit) commit="$2" && shift ;;
    --traced) traced=1 ;;
    *)
        echo "usage: $0 [--seed N] [--seconds S] [--commit LABEL] [--traced]" >&2
        exit 2
        ;;
    esac
    shift
done
if [ -z "$commit" ]; then
    commit="$(git -C "$root" rev-parse --short HEAD)"
    git -C "$root" diff --quiet HEAD -- || commit="$commit+dirty"
fi

workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"
for workload in $workloads; do
    result="$(bash "$root/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$traced" | tail -n 1)"
    python3 - "$root/BENCHMARK.json" "$commit" "$workload" "$seed" "$seconds" "$traced" "$result" >>"$history" <<'PY'
import json, sys

contract, commit, workload, seed, seconds, traced, result = sys.argv[1:]
result = json.loads(result)
if not result["correct"]:
    sys.exit(f"{workload}: the run failed its output checks; nothing appended")
row = {"commit": commit, "workload": workload, "seed": int(seed), "seconds": float(seconds)}
if traced == "1":
    row["traced"] = True
for metric in json.load(open(contract))["per_layer" if traced == "1" else "end_to_end"]:
    row[metric["name"]] = result["metrics"][metric["name"]]["value"]
print(json.dumps(row))
PY
    tail -n 1 "$history" | cut -c 1-400
done
