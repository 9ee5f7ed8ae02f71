#!/usr/bin/env bash
# compare.sh <result-a.json> <result-b.json>
#
# Sets two result files of `run.sh` (the suite) side by side: each
# end-to-end metric of each workload in its own row with both medians,
# the ratio B/A with its base, the bound from BENCHMARK.json and a
# verdict: `ok`, `worse` (beyond the bound) or `unresolved` (the
# run-to-run spread is wider than the bound). Exits non-zero on any
# `worse` row or any rise in failed_share.
set -euo pipefail
if [[ $# -ne 2 ]]; then
    sed -n '2,9p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi
exec python3 "$(dirname "${BASH_SOURCE[0]}")/report.py" compare "$1" "$2"
