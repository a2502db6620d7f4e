#!/usr/bin/env bash
# The benchmark's own gate (the repository's CI does not know this package):
# format, lints and unit tests of bench/, then two quick runs of every
# workload compared with each other, then a third at another seed to prove
# that no output check depends on the default one.
#
# Run from anywhere; it works at the repository root. Outputs go to bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=bench/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"

bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

bench run --quick --out bench/out/check-a.json
bench run --quick --out bench/out/check-b.json
# Fails on any row that is worse, on any result digest that differs, and on
# any row or digest that only one of the two files has.
bench compare bench/out/check-a.json bench/out/check-b.json
bench run --quick --seed 2 --out bench/out/check-seed2.json
echo "bench/check.sh: all checks passed"
