#!/usr/bin/env bash
# The one definition of "non-test first-party lines" simplicity PRs quote:
# for each *.rs under crates/*/src and src, the lines before the first
# line starting `#[cfg(test)]` (the whole file if there is none).
# Prints one row per crate and the total. Reported by CI, never gated on.
#
# Usage: bash ci/count_lines.sh   (from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        root = FILENAME
        sub(/\/src\/.*/, "/src", root)
        if (root !~ /^crates\//) root = "src"
        lines[root]++
        total++
    }
    END {
        for (root in lines) printf "%7d  %s\n", lines[root], root | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
