#!/usr/bin/env bash
# Non-test code lines per crate and for the workspace: in every .rs file
# under crates/*/src, the lines above its first column-0 `#[cfg(test)]`,
# not counting blank lines and lines that start (after indentation) with
# `//` (comments and doc comments). Informational: no threshold.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%7d  %s\n' "$n" "${src%/src}"
    total=$((total + n))
done
printf '%7d  workspace (crates/*/src)\n' "$total"
