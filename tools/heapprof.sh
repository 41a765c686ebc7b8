#!/usr/bin/env bash
# Where does the host memory go? The peak live heap of one benchmark workload.
#
#   tools/heapprof.sh <workload> [seed] [seconds]
#
# The memory twin of tools/hostprof.sh. Builds `benchmark/` unmodified,
# with frame pointers and line tables, into target/hostprof (the same
# build hostprof.sh makes, so the two share it); runs `sb-benchmark
# --workload W` untraced under an LD_PRELOAD allocation tracker
# (tools/heapprof/shim.c: glibc's __libc_* allocator underneath, a
# backtrace() of every block of 32 KiB or more); prints the live set of
# those blocks at their peak, grouped by call site, via
# tools/heapprof/report.py. The dump stays in target/heapprof/heap.txt
# (`report.py target/heapprof/heap.txt --frames N` shows N frames a
# site). Needs gcc, python3 and addr2line; x86-64 Linux with glibc only.
# The shim's tracking slows the run; the run's own figures are not the
# point. Not part of Tier-1 or CI.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="${1:?usage: $0 <workload> [seed] [seconds]}"
seed="${2:-42}"
seconds="${3:-10}"
for tool in gcc python3 addr2line cargo; do
    command -v "$tool" >/dev/null || {
        echo "$0: needs \`$tool\` on PATH" >&2
        exit 1
    }
done

build="$root/target/hostprof"
out="$root/target/heapprof"
mkdir -p "$out"
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$build" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" 1>&2
gcc -O2 -shared -fPIC -o "$out/shim.so" "$root/tools/heapprof/shim.c"

SBHEAP_OUT="$out/heap.txt" LD_PRELOAD="$out/shim.so" \
    "$build/release/sb-benchmark" --out "$out/out" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
python3 "$root/tools/heapprof/report.py" "$out/heap.txt"
