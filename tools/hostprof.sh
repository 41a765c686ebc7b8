#!/usr/bin/env bash
# Where does the host clock go? A sampling profile of one benchmark workload.
#
#   tools/hostprof.sh <workload> [seed] [seconds] [under] [root]
#
# Builds `benchmark/` unmodified, with frame pointers and symbols, into
# target/hostprof; runs `sb-benchmark --workload W` untraced under an
# LD_PRELOAD sampler (tools/hostprof/sampler.c: SIGALRM every 200 us,
# rip + rbp chain); prints self / inclusive / caller tables restricted to
# the measured loop (`Prepared>::run`) via tools/hostprof/report.py, or to
# the frame `root` names instead (a symbol substring, e.g. `graph::setup`
# for a graph workload's set-up); with `under` (a symbol substring, e.g.
# `walk::translate`; empty for none), also what that frame was running
# and who called it, as shares of the kept samples. The samples
# stay in target/hostprof/samples.txt for further `report.py` queries
# (`--under SYMBOL`, `--lines SYMBOL` for a function's hottest source lines).
# Needs gcc, python3, nm and (for `--lines`) addr2line; x86-64 Linux only.
# Not part of Tier-1 or CI.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="${1:?usage: $0 <workload> [seed] [seconds] [under] [root]}"
seed="${2:-42}"
seconds="${3:-10}"
under="${4:-}"
root_frame="${5:-}"
for tool in gcc python3 nm cargo; do
    command -v "$tool" >/dev/null || {
        echo "$0: needs \`$tool\` on PATH" >&2
        exit 1
    }
done

out="$root/target/hostprof"
mkdir -p "$out"
# Line tables through the profile, not `-g`: cargo strips the debuginfo
# of a release build whose profile leaves `debug` unset, whatever
# RUSTFLAGS asked rustc to emit, and addr2line then answers `?`.
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$out" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" 1>&2
gcc -O2 -shared -fPIC -o "$out/sampler.so" "$root/tools/hostprof/sampler.c"

SBPROF_OUT="$out/samples.txt" LD_PRELOAD="$out/sampler.so" \
    "$out/release/sb-benchmark" --out "$out/out" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
python3 "$root/tools/hostprof/report.py" "$out/samples.txt" ${root_frame:+"$root_frame"} ${under:+--under "$under"}
