#!/usr/bin/env bash
# Regenerate every simulated-clock artefact under results/ and diff it
# against the committed copy.
#
#   tools/regen_results.sh [dir]
#
# Runs `sb-bench` once with no name, so every registry entry runs: the
# paper's eleven tables and figures (and the fidelity ledger
# fidelity.json their cells add up to) and the seven gated sweeps, into
# `dir/results` (default target/regen/results). Then runs the four
# goldens (tests/*_golden.rs), each of which writes the pins it measured
# to `$CARGO_TARGET_TMPDIR/pins/<golden>.json`, copies those into
# `dir/results/pins/`, and diffs the whole tree against results/. A
# failed golden still reaches the diff, which names its moved rows; a
# golden that did not run shows as a missing pins file. No variable is
# set: every run size is a constant of its entry, the one the committed
# file records, so each runs here exactly as `cargo run --release -p
# sb-bench NAME` does. Everything they print is simulated, so any
# difference is a finding: a simulated figure or pin moved (re-capture
# it in the change that moved it, and say why) or a gate broke (the bin
# exits non-zero first). Most of the run is `figure9_11`. To
# re-baseline every committed file and pin after an intended change,
# copy `dir/results/` over `results/`.
#
# Tier-1 already runs sixteen of the eighteen entries in-process, every
# gated sweep and nine paper artefacts (held file for file and gate for
# gate by crates/bench/tests/paper.rs, in the optimised test profile the
# root Cargo.toml sets). `table6`, whose real-binary rows count the
# host's installed files, and `figure9_11` are re-derived only here;
# for the other sixteen this diff checks that a release build agrees
# with the test build.
#
# Not diffed: BENCH_history.jsonl (the host clock's trajectory, appended
# by tools/bench_history.sh) and the untracked postmortem/ and traces/
# subtrees.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:-$root/target/regen}"
rm -rf "$dir/results"
mkdir -p "$dir/results"
# Absolute: the bin runs in `dir`, and the diff below names it again.
dir="$(cd "$dir" && pwd)"
# `profile` diffs its run against the profile.json it finds beside it (a
# copy of the checkout's), then rewrites it; CI prints the diff against
# the parent commit's file in a step of its own.
cp "$root/results/profile.json" "$dir/results/"

# The bin writes `results/` under its working directory: run it where
# `results/` is the fresh directory, not the checkout's.
cd "$dir"
echo "regen: every registry entry" >&2
cargo run --release --quiet --manifest-path "$root/Cargo.toml" -p sb-bench >/dev/null

# The goldens write their pins under the test profile's `tmp/`, in the
# target directory the test build uses.
pins="${CARGO_TARGET_DIR:-$root/target}/tmp/pins"
cd "$root"
rm -rf "$pins"
echo "regen: the four goldens" >&2
goldens=0
cargo test --quiet --no-fail-fast --manifest-path "$root/Cargo.toml" \
    --test sim_golden --test serve_golden --test storage_golden --test stream_golden \
    >&2 || goldens=$?
mkdir -p "$dir/results/pins"
cp "$pins"/*.json "$dir/results/pins/" 2>/dev/null || true

diff -r -x BENCH_history.jsonl -x postmortem -x traces \
    "$root/results" "$dir/results"
if [ "$goldens" -ne 0 ]; then
    echo "regen: a golden failed (exit $goldens)" >&2
    exit "$goldens"
fi
echo "regen: every artefact and pin under results/ regenerates to the committed bytes" >&2
