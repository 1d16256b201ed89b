#!/usr/bin/env bash
# The lint job's checks that need no action: every file gofmt-clean and
# `go vet` quiet over the root module. golangci-lint runs as its own CI
# step.
#
# Usage: scripts/ci/lint.sh
set -eu

cd "$(dirname "$0")/../.."
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "files need gofmt:" >&2
	echo "$out" >&2
	exit 1
fi
go vet ./...
