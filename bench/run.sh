#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the load generator and the real
# cmd/tpad from source into .bench_build/ (the only directory a run writes),
# then hands every argument to the generator. Run from the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/bin"
# Keep the toolchain's own caches inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$build/bin/" . tpa/cmd/tpad)
exec "$build/bin/bench" -tpad "$build/bin/tpad" -work "$build" "$@"
