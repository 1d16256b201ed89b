#!/usr/bin/env bash
# Coverage floor on the subsystems the snapshot/serving/mutation story
# depends on: internal/graph, internal/core, internal/server and
# internal/method must each stay at or above 70% statement coverage. The
# profiles land in coverage/<pkg>.out at the repository root (CI uploads
# them). Fails, naming every package below the floor, after measuring all
# four.
#
# Usage: scripts/ci/coverage.sh
set -eu

cd "$(dirname "$0")/../.."
floor=70.0
mkdir -p coverage
fail=0
for pkg in internal/graph internal/core internal/server internal/method; do
	name=$(echo "$pkg" | tr '/' '_')
	go test -coverprofile="coverage/${name}.out" "./${pkg}/"
	pct=$(go tool cover -func="coverage/${name}.out" | tail -1 | awk '{print $3}' | tr -d '%')
	echo "${pkg}: ${pct}% (floor ${floor}%)"
	if awk "BEGIN {exit !(${pct} < ${floor})}"; then
		echo "::error::coverage of ${pkg} is ${pct}%, below the ${floor}% floor"
		fail=1
	fi
done
exit $fail
