#!/usr/bin/env bash
# Crash-safety gate for the durable ingest pipeline: a ~60s mutation storm
# (4 writers, 4 query clients) against a race-built tpad with -wal, then
# kill -9 mid-ingest, an in-process WAL replay as the reference, and a
# restarted server whose served scores must match that reference to 1e-12
# (soak_test.go). The WAL's apply markers are what make the comparison
# exact: replay reproduces the original batch grouping, not just the edge
# set.
#
# Usage: scripts/ci/ingest-soak.sh
set -eu

cd "$(dirname "$0")/../.."
TPA_SOAK=1 TPA_SOAK_DURATION=60s \
	go test -race -run TestIngestSoakCrashResume -v -timeout 15m .
