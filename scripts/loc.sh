#!/usr/bin/env bash
# Non-test, non-comment lines of Rust per crate: each file up to its first
# `#[cfg(test)]`, blank lines and `//` lines (doc comments included)
# dropped. ROADMAP asks every PR to report this table's delta.
#
#   scripts/loc.sh            # the whole table, from the checkout root
#   scripts/loc.sh DIR ...    # only these directories
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

dirs=("$@")
if [ ${#dirs[@]} -eq 0 ]; then
    dirs=(crates/*/src vendor/*/src)
fi
total=0
printf '| crate | lines |\n|---|---:|\n'
for dir in "${dirs[@]}"; do
    n=$(count "$dir")
    total=$((total + n))
    printf '| `%s` | %d |\n' "$dir" "$n"
done
printf '| *total* | *%d* |\n' "$total"
