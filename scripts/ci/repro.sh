#!/usr/bin/env bash
# Checks the reproduction module (repro/: the experiment harness, the
# paper's Fig/Table benchmarks and the method arena's CLI), which the root
# module's `go build ./...` and `go test ./...` never see. It vets and tests
# the module (plain and -race), runs every Fig/Table benchmark once, and
# sweeps the arena over a 10k-node SBM graph. The arena exits non-zero if
# any cell fails or any method's mean L1 error exceeds its declared bound;
# its report is left in repro/ARENA_ci.json.
#
# Usage: scripts/ci/repro.sh
set -eu

cd "$(dirname "$0")/../../repro"

go vet ./...
go test ./...
go test -race ./...

go test -run '^$' -bench . -benchtime 1x ./internal/experiments

go run ./cmd/arena -gen sbm:10000 -queries 5 -k 20 -json ARENA_ci.json
cat ARENA_ci.json
