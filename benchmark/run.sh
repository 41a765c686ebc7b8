#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   # one workload, one process
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]                # all five, one process each
#   benchmark/run.sh --repeat [--seed N]                                # the suite twice, with a verdict table
#
# The last line of standard output is the result as JSON; the human
# table is on standard error. Exits non-zero if the build fails (for
# instance where the repository's crates are absent) or a check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

# Build output goes to standard error so standard output stays the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/sb-benchmark" --out "$here/out" "$@"
