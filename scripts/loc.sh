#!/bin/sh
# Non-test Rust line count, per crate and for the workspace — the number
# ROADMAP aim 2 tracks ("net line count should go down").
#
# Counted: every line of every *.rs under each crate's src/ (the crates/*
# members plus the root package). Not counted: `#[cfg(test)] mod … { … }`
# blocks, a file the crate root declares as `#[cfg(test)] mod name;`, tests/,
# examples/, vendor/ and the standalone bench/ package. Run from anywhere;
# prints `<lines> <crate>` rows and a total.
#
# `--max N` turns the total into a ratchet: exit 1 when it exceeds N. CI
# passes the total of the last PR that lowered it, so the number can only be
# raised by editing the workflow in plain sight.
set -eu
cd "$(dirname "$0")/.."

max=
case "${1:-}" in
--max)
    max=${2:?--max needs a line count}
    ;;
?*)
    echo "usage: scripts/loc.sh [--max N]" >&2
    exit 2
    ;;
esac

count() {
    # Out-of-line test modules of the crate root, as `! -path` filters.
    test_files=$(awk -v dir="$1" '
        prev ~ /^#\[cfg\(test\)\]$/ && /^mod [A-Za-z0-9_]+;$/ {
            printf "! -path %s/%s.rs ", dir, substr($2, 1, length($2) - 1)
        }
        { prev = $0 }' "$1/lib.rs")
    # shellcheck disable=SC2086 # the filters are words by construction
    find "$1" -name '*.rs' $test_files -exec cat {} + | awk '
        # A test module starts at `#[cfg(test)]` directly followed by a
        # `mod` line at the same indent and ends at that indent'"'"'s `}`
        # (rustfmt guarantees the shape).
        skipping { if ($0 == close_line) skipping = 0; next }
        /^[ \t]*#\[cfg\(test\)\]$/ {
            pending = 1
            indent = $0; sub(/#.*/, "", indent)
            next
        }
        pending {
            pending = 0
            if ($0 ~ "^" indent "(pub )?mod [A-Za-z0-9_]+ \\{$") {
                skipping = 1; close_line = indent "}"
                next
            }
            lines++   # the attribute guarded something else: count it
        }
        { lines++ }
        END { print lines + 0 }'
}

total=0
for src in src crates/*/src; do
    [ -d "$src" ] || continue
    case "$src" in
        src) name=modelnet-workspace ;;
        *) name=${src#crates/}; name=${name%/src} ;;
    esac
    lines=$(count "$src")
    total=$((total + lines))
    printf '%7d  %s\n' "$lines" "$name"
done
printf '%7d  total\n' "$total"
if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
    echo "loc.sh: total $total exceeds --max $max" >&2
    exit 1
fi
