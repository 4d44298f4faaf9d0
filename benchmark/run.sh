#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object.
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload, untraced then traced, each in its own process so
#       peak RSS is per workload.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Every function and every loop starts on a 64-byte line. Without this,
# where a hot loop falls relative to the fetch window depends on the size
# of all the code before it, and on this sandbox's CPU a one-character
# edit to a message string moves `mutate_cycle` by 25 % and `pr_stream`
# by 14 % (same source otherwise, each binary reproducibly). With it the
# two builds measure the same.
export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6 -C llvm-args=-align-loops=64"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/gsd-benchmark"

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" --bench-dir "$here" "$@"
  fi
done

status=0
for workload in pr_stream sssp_frontier mutate_cycle serve_mixed; do
  for trace in 0 1; do
    "$bin" --bench-dir "$here" --workload "$workload" --trace "$trace" --print "$@" || status=1
  done
done
exit "$status"
