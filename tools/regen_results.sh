#!/usr/bin/env bash
# Regenerate every simulated-clock artefact under results/ and diff it
# against the committed copy.
#
#   tools/regen_results.sh [dir]
#
# Runs `paper` (all eleven tables and figures, and the fidelity ledger
# fidelity.json their cells add up to) and the seven gated bins of
# sb-bench, with the knob values the committed files were made with,
# into `dir/results` (default target/regen/results), then diffs that
# tree against results/. Everything these bins print is simulated, so
# any difference is a finding: a simulated figure moved (re-capture the
# file in the change that moved it, and say why) or a gate broke (the
# bin exits non-zero first). ~1 min release-built; to refresh the
# committed files after an intended change, copy `dir/results/` over
# `results/`.
#
# Not diffed: BENCH_history.jsonl (the host clock's trajectory, appended
# by tools/bench_history.sh), sample_trace.json (a hand-picked SB_TRACE
# capture) and the untracked postmortem/ and traces/ subtrees.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:-$root/target/regen}"
rm -rf "$dir/results"
mkdir -p "$dir/results"
# `profile` diffs its run against the committed baseline.
cp "$root/results/profile_baseline.json" "$dir/results/"

# chaos.json and figure9_11.txt name files written beside them by path
# (`results/postmortem/…`, `wrote results/figure9_11.json`): run the bins
# where the default `results/` is the fresh directory, not the checkout's.
cd "$dir"
bench() {
    echo "regen: $*" >&2
    cargo run --release --quiet --manifest-path "$root/Cargo.toml" -p sb-bench --bin "$@" >/dev/null
}
bench paper
bench tenant
SB_REQUESTS=500 bench runtime_scaling
SB_REQUESTS=200 SB_CHAOS_SEEDS=2 SB_FS_SEEDS=32 bench chaos
SB_RING_REQUESTS=500 bench ring
SB_GRAPH_OPS=300 bench graph
bench sentinel
bench profile

diff -r -x BENCH_history.jsonl -x sample_trace.json -x postmortem -x traces \
    "$root/results" "$dir/results"
echo "regen: every artefact under results/ regenerates to the committed bytes" >&2
