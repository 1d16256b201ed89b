#!/usr/bin/env bash
# The *_bench_test.go micro-benchmarks are developer tools for working on
# one kernel; the perf record is bench/ (BENCHMARK.json). This runs each of
# them once so they keep compiling and running: the root package's, the
# graph rebuild's (BenchmarkWithEdges beside its Delta baseline), the
# edge-list parse's (BenchmarkReadEdgeList, MB/s and allocs per load) and
# the served write's (BenchmarkServeEdges, head skips and operator
# applications per write). The paper's Fig/Table benchmarks run in
# scripts/ci/repro.sh.
#
# Usage: scripts/ci/bench.sh
set -eu

cd "$(dirname "$0")/../.."
go test -run '^$' -bench . -benchtime 1x . ./internal/graph ./internal/server
