#!/usr/bin/env bash
# Regenerate every simulated-clock artefact under results/ and diff it
# against the committed copy.
#
#   tools/regen_results.sh [dir]
#
# Runs `paper` (all eleven tables and figures, and the fidelity ledger
# fidelity.json their cells add up to) and the seven gated bins of
# sb-bench into `dir/results` (default target/regen/results), then diffs
# that tree against results/. No variable is set: every run size is a
# constant of its bin, the one the committed file records, so each bin
# runs here exactly as `cargo run --release -p sb-bench --bin X` does.
# Everything these bins print is simulated, so any difference is a
# finding: a simulated figure moved (re-capture the file in the change
# that moved it, and say why) or a gate broke (the bin exits non-zero
# first). ~1 min release-built; to re-baseline every committed file
# after an intended change, copy `dir/results/` over `results/`.
#
# Tier-1 already re-derives six of paper's artefacts in-process (`table1`,
# `figure2`, `table2`, `table3`, `figure7`, `figure8`: ~3.5 s wall, ~6 s
# CPU on two cores in a debug build, held cell for cell to fidelity.json by
# crates/bench/tests/paper.rs). `table4`, `figure9_11`, `table5`, `table6`
# and `ablations` (5.3, 32.7, 3.2, 3.4 and 1.5 s release-built on a
# 2-core host; table5 alone takes 42 s in debug) and the seven gated bins
# are re-derived only here.
#
# Not diffed: BENCH_history.jsonl (the host clock's trajectory, appended
# by tools/bench_history.sh), sample_trace.json (a hand-picked Perfetto
# capture of runtime_scaling's traced cell) and the untracked postmortem/
# and traces/ subtrees.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:-$root/target/regen}"
rm -rf "$dir/results"
mkdir -p "$dir/results"
# Absolute: the bins run in `dir`, and the diff below names it again.
dir="$(cd "$dir" && pwd)"
# `profile` diffs its run against the checkout's profile.json, then
# rewrites it. Before a commit that file is still the parent's, so this
# run prints the change's per-phase diff; CI prints it against the
# parent commit's file in a step of its own.
cp "$root/results/profile.json" "$dir/results/"

# chaos.json names the files written beside it by path
# (`results/postmortem/…`): run the bins where `results/` is the fresh
# directory, not the checkout's.
cd "$dir"
for bin in paper tenant runtime_scaling chaos ring graph sentinel profile; do
    echo "regen: $bin" >&2
    cargo run --release --quiet --manifest-path "$root/Cargo.toml" -p sb-bench --bin "$bin" >/dev/null
done

diff -r -x BENCH_history.jsonl -x sample_trace.json -x postmortem -x traces \
    "$root/results" "$dir/results"
echo "regen: every artefact under results/ regenerates to the committed bytes" >&2
