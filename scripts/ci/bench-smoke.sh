#!/usr/bin/env bash
# Runs one benchmark workload end to end through bench/run.sh and fails
# unless its verdict says every answer validated and no operation failed.
# With --workload, bench/run.sh prints the run's JSON verdict as its last
# stdout line; that line decides, as it did when each CI step inlined it.
#
# Usage: scripts/ci/bench-smoke.sh <workload> [bench/run.sh args...]
#   e.g. scripts/ci/bench-smoke.sh edge-churn --seconds 5 --trace 0
set -eu

if [ $# -lt 1 ]; then
	echo "usage: $0 <workload> [bench/run.sh args...]" >&2
	exit 2
fi
workload=$1
shift

cd "$(dirname "$0")/../.."
out=$(mktemp)
trap 'rm -f "$out"' EXIT

bash bench/run.sh --workload "$workload" "$@" | tee "$out"
last=$(tail -n 1 "$out")
echo "$last" | grep -qF '"correct":true' || { echo "::error::benchmark answers failed validation: $last"; exit 1; }
echo "$last" | grep -qF '"failed":0' || { echo "::error::benchmark operations failed: $last"; exit 1; }
