#!/usr/bin/env bash
# Runs the full benchmark twice over, in A B B A order, and compares
# the two sets against the benchmark's own bounds: host metrics within
# their bound in both directions, simulated metrics and sim_digest
# exactly equal. Exits non-zero on any breach.
#
#   benchmark/repeat.sh [seed] [binary-A] [binary-B]
#
# With no binaries given, both sets run the current build, which is
# how the agreement table in benchmark/README.md was made. Give two
# binaries (built once each, see the README) to compare two commits.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
if [ $# -ge 3 ]; then
    bin_a="$2"
    bin_b="$3"
    agree=""
else
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    bin_a="${CARGO_TARGET_DIR:-benchmark/target}/release/monatt-perf"
    bin_b="$bin_a"
    agree="--agree"
fi

out=benchmark/out/repeat
rm -rf "$out"
"$bin_a" --workload all --seed "$seed" --out-dir "$out/a1"
"$bin_b" --workload all --seed "$seed" --out-dir "$out/b1"
"$bin_b" --workload all --seed "$seed" --out-dir "$out/b2"
"$bin_a" --workload all --seed "$seed" --out-dir "$out/a2"
"$bin_a" compare --a "$out/a1,$out/a2" --b "$out/b1,$out/b2" $agree
