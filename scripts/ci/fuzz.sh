#!/usr/bin/env bash
# Short fuzz pass over the decoders and the write primitive, 30 seconds
# each: the snapshot decoders (TPAM, the only snapshot format, and the
# core index/snapshot readers: "corrupt input never panics, always typed
# ErrBadSnapshot"), Graph.WithEdges against the Delta overlay ("same arrays
# as Delta") and the edge-list parser against the line-scanner reference it
# replaced ("same language, same graph"). Deeper runs raise -fuzztime on a
# single target (see docs/TESTING.md).
#
# Usage: scripts/ci/fuzz.sh
set -eu

cd "$(dirname "$0")/../.."
go test ./internal/graph -run '^$' -fuzz '^FuzzWithEdges$'        -fuzztime 30s
go test ./internal/graph -run '^$' -fuzz '^FuzzReadEdgeList$'     -fuzztime 30s
go test .                -run '^$' -fuzz '^FuzzReadMmapSnapshot$' -fuzztime 30s
go test ./internal/core  -run '^$' -fuzz '^FuzzReadSnapshot$'     -fuzztime 30s
go test ./internal/core  -run '^$' -fuzz '^FuzzReadIndex$'        -fuzztime 30s
