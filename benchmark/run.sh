#!/usr/bin/env bash
# The benchmark's one entry point, run from the root of the repository.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's command does);
#       builds release first if needed, ends with the result line
#   bash benchmark/run.sh [--seed N] [--runs R] [--vary-seed] [--smoke]
#       the suite: every workload untraced in a fresh process, then one
#       traced run each; prints the tables, writes benchmark/out/result.json
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec cargo run --release --offline --quiet \
            --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
    fi
done
exec python3 "$here/report.py" suite "$@"
