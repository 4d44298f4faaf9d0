#!/usr/bin/env bash
# Crash test with a real process on real files: `gsd run --checkpoint-every 1`
# is killed with SIGKILL after a range of delays — before its first
# checkpoint, mid-commit, between checkpoints or after it has finished,
# wherever the kill lands — then rerun to completion on the same grid. Its
# stdout, minus the wall-clock timers, must equal an uninterrupted run's
# on a fresh copy of the grid. The in-process crash tests
# (`tests/crash_resume.rs`: `halt_after`, `kill_at_op`) never lose the
# page cache's view of a half-written file; this one kills the process.
#
# Usage: bash ci/kill_resume.sh [path/to/gsd]   (default target/release/gsd;
# builds nothing, runs from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."
gsd=$(realpath "${1:-target/release/gsd}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$gsd" generate rmat 150000 3000000 "$work/edges.txt" --seed 5 >/dev/null
"$gsd" preprocess "$work/edges.txt" "$work/grid" >/dev/null

# The run's report without its three wall-clock timers.
run() {
    "$gsd" run "$1" pagerank --checkpoint-every 1 --iterations 20 |
        sed -E 's/, io [0-9.]+s, update [0-9.]+s, scheduler [0-9.]+s$//'
}

cp -r "$work/grid" "$work/fresh"
run "$work/fresh" >"$work/want.txt"

for delay in 0.02 0.05 0.1 0.15 0.2 0.25 0.3 0.4 0.6 1; do
    rm -rf "$work/killed"
    cp -r "$work/grid" "$work/killed"
    status=0
    timeout -s KILL "$delay" "$gsd" run "$work/killed" pagerank \
        --checkpoint-every 1 --iterations 20 >/dev/null || status=$?
    left=$(ls "$work/killed/ckpt" 2>/dev/null | tr '\n' ' ') || true
    run "$work/killed" >"$work/got.txt"
    if ! diff -u "$work/want.txt" "$work/got.txt"; then
        echo "kill after ${delay}s (exit $status, left: ${left:-nothing}): resumed output differs" >&2
        exit 1
    fi
    echo "kill after ${delay}s (exit $status, left: ${left:-nothing}): resumed output matches"
done
