#!/usr/bin/env bash
# The test job: build and test the root module, plain and under -race, and
# keep the competitor methods out of the serving dependency graph. The
# library and the HTTP server serve TPA only; the competitor methods
# (internal/method) are the paper's offline comparison (repro/cmd/arena).
#
# Usage: scripts/ci/test.sh
set -eu

cd "$(dirname "$0")/../.."
go build ./...
go test ./...
go test -race ./...
if go list -deps . ./internal/server | grep -qx 'tpa/internal/method'; then
	echo "::error::the root package or internal/server depends on tpa/internal/method" >&2
	exit 1
fi
