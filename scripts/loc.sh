#!/usr/bin/env bash
# Lines of Rust per crate: "production" is what precedes a file's first line
# starting with `#[cfg(test)]`, "test" is the rest. Run from anywhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
printf '%-18s %10s %8s\n' crate production test
for crate in crates/*/; do
  find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v name="$(basename "$crate")" '
    FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 } { n[in_tests]++ }
    END { printf "%-18s %10d %8d\n", name, n[0], n[1] }'
done | awk '{ print; p += $2; t += $3 } END { printf "%-18s %10d %8d\n", "total", p, t }'
