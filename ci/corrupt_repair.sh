#!/usr/bin/env bash
# Corruption round trip on real files: flip one byte of the largest
# sub-block with `dd`, then a verified `gsd run` must fail naming that
# object, `gsd scrub` must list it, and `gsd scrub --repair` must restore
# the grid so the verified run prints what it printed before the flip
# (minus the wall-clock timers). The in-process suites plant rot through
# `corrupt_object`; this one edits the file on disk.
#
# Usage: bash ci/corrupt_repair.sh [path/to/gsd]   (default target/release/gsd;
# builds nothing, runs from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."
gsd=$(realpath "${1:-target/release/gsd}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$gsd" generate rmat 20000 200000 "$work/edges.txt" --seed 3 >/dev/null
"$gsd" preprocess "$work/edges.txt" "$work/grid" >/dev/null

# The verified run's report without its three wall-clock timers.
run() {
    "$gsd" run "$work/grid" pagerank --iterations 5 --verify full |
        sed -E 's/, io [0-9.]+s, update [0-9.]+s, scheduler [0-9.]+s$//'
}

run >"$work/want.txt"
grep -q "verified .* KiB; 0 corrupt object(s) detected" "$work/want.txt"

file=$(ls -S "$work/grid/blocks/"*.edges | head -n 1)
key="blocks/$(basename "$file")"
offset=$(($(stat -c %s "$file") / 2))
byte=$(od -An -tu1 -j "$offset" -N1 "$file" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 0xFF)))" |
    dd of="$file" bs=1 seek="$offset" conv=notrunc status=none
echo "flipped byte $offset of $key"

if "$gsd" run "$work/grid" pagerank --iterations 5 --verify full \
    >/dev/null 2>"$work/run.err"; then
    echo "verified run over $key succeeded" >&2
    exit 1
fi
grep -F "$key" "$work/run.err"

if "$gsd" scrub "$work/grid" >"$work/scrub.txt" 2>&1; then
    echo "scrub found nothing wrong with $key" >&2
    exit 1
fi
grep -F "$key" "$work/scrub.txt"

"$gsd" scrub "$work/grid" --repair "$work/edges.txt"
run >"$work/got.txt"
diff -u "$work/want.txt" "$work/got.txt"
echo "repaired $key; the verified run's output matches"
