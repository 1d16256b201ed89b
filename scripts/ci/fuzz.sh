#!/usr/bin/env bash
# Short fuzz pass over the decoders and the write primitive, 30 seconds
# each: the snapshot decoders (TPAM, the only snapshot format, and the
# core index/snapshot readers: "corrupt input never panics, always typed
# ErrBadSnapshot"), Graph.WithEdges against the Delta overlay ("same arrays
# as Delta"), the edge-list parser against the line-scanner reference it
# replaced ("same language, same graph") and the POST /edges body reader
# against the encoding/json decode it bypasses ("same status, same error
# text, same edges"). Deeper runs raise -fuzztime on a single target (see
# docs/TESTING.md).
#
# Usage: scripts/ci/fuzz.sh
set -eu

cd "$(dirname "$0")/../.."
go test ./internal/graph  -run '^$' -fuzz '^FuzzWithEdges$'        -fuzztime 30s
go test ./internal/graph  -run '^$' -fuzz '^FuzzReadEdgeList$'     -fuzztime 30s
go test .                 -run '^$' -fuzz '^FuzzReadMmapSnapshot$' -fuzztime 30s
go test ./internal/core   -run '^$' -fuzz '^FuzzReadSnapshot$'     -fuzztime 30s
go test ./internal/core   -run '^$' -fuzz '^FuzzReadIndex$'        -fuzztime 30s
go test ./internal/server -run '^$' -fuzz '^FuzzEdgeBody$'         -fuzztime 30s
