#!/usr/bin/env bash
# Which non-test functions does no program reach?
#
#   bash tools/reach.sh [--check]
#
# Builds the programs (sb-bench, the root package's examples, benchmark/'s
# sb-benchmark) and every test binary of the workspace at opt-level 0,
# where no ordinary function is inlined away, into target/reach. Then
# tools/reach/scan.py matches their symbols, and the inlined copies their
# DWARF records, against every non-test `fn` of the workspace's packages
# and writes tools/reach.txt: one row per function no program reaches,
# `test-only` (naming a test that reaches it) or `unreached`.
#
# With --check it writes nothing and exits 1 naming each row the ledger
# lacks (a new function no program reaches) or that no longer holds (a
# listed function a program now reaches, or that is gone). benchmark/ is
# built `--locked` into target/reach/benchmark, so nothing under
# benchmark/ changes. Needs cargo, python3, nm and llvm-dwarfdump. Takes
# a few minutes cold; outside Tier-1, because it rebuilds at opt-level 0.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
case "${1:-}" in
    "" | --check) ;;
    *)
        echo "usage: $0 [--check]" >&2
        exit 2
        ;;
esac
for tool in cargo python3 nm llvm-dwarfdump; do
    command -v "$tool" >/dev/null || {
        echo "$0: needs \`$tool\` on PATH" >&2
        exit 1
    }
done

cd "$root"
out="$root/target/reach"
mkdir -p "$out"
export CARGO_PROFILE_DEV_OPT_LEVEL=0

# `program PATH` or `test PATH SRC_PATH` per executable cargo built.
artefacts() {
    python3 -c '
import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") != "compiler-artifact" or not m.get("executable"):
        continue
    if not m["profile"]["test"]:
        print("program", m["executable"])
    elif sys.argv[1] == "test":
        print("test", m["executable"], m["target"]["src_path"])
' "$1"
}

json=--message-format=json-render-diagnostics
{
    cargo build -q $json --target-dir "$out" -p sb-bench --bins | artefacts program
    cargo build -q $json --target-dir "$out" -p skybridge-repro --examples | artefacts program
    cargo build -q $json --locked --manifest-path benchmark/Cargo.toml \
        --target-dir "$out/benchmark" | artefacts program
    cargo test -q $json --no-run --target-dir "$out" | artefacts test | grep '^test '
} > "$out/artefacts.txt"

python3 tools/reach/scan.py "$root" "$out/artefacts.txt" tools/reach.txt "$@"
