#!/usr/bin/env bash
# Checks that the working tree builds byte-identical snapshots to BASE:
#
#   bash scripts/same-snapshots.sh BASE
#
# BASE is any git revision. It is exported with `git archive` into a
# temporary directory (nothing is written under .git), and both sides'
# `tpad` are built from source, with one `graphgen` from the working tree.
# Three graphs are generated: an SBM of 200k nodes and about 2.05M edges,
# an SBM of 10k nodes and an R-MAT of 2^15 nodes. Each side runs
# `tpad build` on each graph twice, plain and with
# `-precision float32 -shards 2`, and the six pairs are compared with cmp.
# Each side's "preprocess ... iterations, stale bound" line is printed.
# The exit status is non-zero on any difference. The temporary directory
# is removed on exit. It runs offline, in about 30 s on 2 vCPUs.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
base=$1
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/bin" "$tmp/graphs" "$tmp/out"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$root" && go build -o "$tmp/bin/tpad-new" ./cmd/tpad && go build -o "$tmp/bin/graphgen" ./cmd/graphgen)
(cd "$tmp/base" && go build -o "$tmp/bin/tpad-base" ./cmd/tpad)

gen="$tmp/bin/graphgen"
"$gen" -model sbm -nodes 200000 -edges 2400000 -out "$tmp/graphs/sbm-200k.tsv" >/dev/null
"$gen" -model sbm -nodes 10000 -edges 120000 -out "$tmp/graphs/sbm-10k.tsv" >/dev/null
"$gen" -model rmat -scale 15 -edges 262144 -out "$tmp/graphs/rmat-15.tsv" >/dev/null

status=0
for g in sbm-200k sbm-10k rmat-15; do
	for variant in plain f32-shards2; do
		flags=()
		if [ "$variant" = f32-shards2 ]; then
			flags=(-precision float32 -shards 2)
		fi
		for side in base new; do
			line=$("$tmp/bin/tpad-$side" build -graph "$tmp/graphs/$g.tsv" -o "$tmp/out/$g-$variant-$side.tpam" "${flags[@]}" |
				sed -n 's/.*\(preprocess [^)]*)\).*/\1/p')
			printf '%-8s %-12s %-4s %s\n' "$g" "$variant" "$side" "$line"
		done
		if cmp "$tmp/out/$g-$variant-base.tpam" "$tmp/out/$g-$variant-new.tpam"; then
			printf '%-8s %-12s same\n' "$g" "$variant"
		else
			status=1
		fi
	done
done
if [ $status -ne 0 ]; then
	echo "same-snapshots: the snapshots differ from $base" >&2
fi
exit $status
