#!/usr/bin/env bash
# The billion-edge-serving pipeline at CI scale: generate an SBM graph,
# build a 4-shard memory-mapped TPAM snapshot and an unsharded one, serve
# both off their mappings, and answer 200 deadline-bounded top-k queries, a
# seed-set query (with a duplicate seed) and a score query, failing on the
# first non-2xx: the shard plan permutes ids, so all three remap seeds and
# results. The stats probe pins what makes this check distinct — the server
# must actually be serving 4 shards from an mmap, not silently falling back
# to the plain heap path — and the metrics probe after the queries pins the
# walk's kernel choice: a query's sparse hops must have been answered by the
# push kernel (tpa_shard_matvec_total{kernel="push"} ≥ 1), not by a dense
# pull fan-out per hop. The shard plan is the one permuted layout, so the
# sharded answers are then held to the unsharded build of the same edge
# list: 20 seeds' top-10, node by node and score by score within 1e-9. A
# final write moves the mapped graph onto the heap and must keep its 4
# shards. Needs curl and jq; works in a temporary directory it removes.
#
# Usage: scripts/ci/shard-smoke.sh
set -eu

root=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
server=
cleanup() {
	if [ -n "$server" ]; then
		kill "$server" 2>/dev/null || true
		wait "$server" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT

(cd "$root" && go build -o "$work/bin/" ./cmd/tpad ./cmd/graphgen)
cd "$work"

bin/graphgen -model sbm -nodes 100000 -edges 2000000 -communities 16 -out sbm.tsv
mkdir snaps
bin/tpad build -graph sbm.tsv -o snaps/sbm.tpam -shards 4
bin/tpad build -graph sbm.tsv -o snaps/plain.tpam

bin/tpad serve -graphs snaps -addr :8080 -default-deadline 250ms &
server=$!
for i in $(seq 1 50); do
	curl -sf localhost:8080/healthz && break
	sleep 0.2
done
stats=$(curl -sf localhost:8080/graphs/sbm/stats)
echo "$stats" | grep -q '"count": *4' || { echo "::error::stats missing 4-shard layout: $stats"; exit 1; }
echo "$stats" | grep -q '"mapped": *true' || { echo "::error::stats says snapshot is not mmap-served: $stats"; exit 1; }
for i in $(seq 1 200); do
	curl -sf -o /dev/null -H 'X-TPA-Deadline-Ms: 100' "localhost:8080/graphs/sbm/topk?seed=$i&k=10" \
		|| { echo "::error::GET /graphs/sbm/topk?seed=$i failed"; exit 1; }
done
curl -sf -o /dev/null -X POST localhost:8080/graphs/sbm/queryset -d '{"seeds":[1,2,1],"k":10}' \
	|| { echo "::error::POST /graphs/sbm/queryset failed"; exit 1; }
curl -sf -o /dev/null "localhost:8080/graphs/sbm/score?seed=1&node=2" \
	|| { echo "::error::GET /graphs/sbm/score failed"; exit 1; }
metrics=$(curl -sf localhost:8080/metrics | grep -E '^tpa_shard_')
echo "$metrics"
echo "$metrics" | grep -Eq '^tpa_shard_matvec_total\{.*kernel="push".*\} [1-9]' \
	|| { echo "::error::no operator application was answered by the push kernel"; exit 1; }
for i in $(seq 1 20); do
	sharded=$(curl -sf -H 'X-TPA-Deadline-Ms: 0' "localhost:8080/graphs/sbm/topk?seed=$i&k=10") \
		|| { echo "::error::GET /graphs/sbm/topk?seed=$i failed"; exit 1; }
	plain=$(curl -sf -H 'X-TPA-Deadline-Ms: 0' "localhost:8080/graphs/plain/topk?seed=$i&k=10") \
		|| { echo "::error::GET /graphs/plain/topk?seed=$i failed"; exit 1; }
	jq -en --argjson a "$sharded" --argjson b "$plain" '
		($a.results | length) == 10 and ($b.results | length) == 10 and
		([range(10) as $r | ($a.results[$r].node == $b.results[$r].node) and
			(($a.results[$r].score - $b.results[$r].score) | if . < 0 then -. else . end) <= 1e-9] | all)' >/dev/null \
		|| { echo "::error::seed $i: sharded top-k $sharded differs from unsharded $plain"; exit 1; }
done
curl -sf -X POST localhost:8080/graphs/sbm/edges -d '{"add":[[1,99999]]}' \
	|| { echo "::error::POST /graphs/sbm/edges on the mapped graph failed"; exit 1; }
stats=$(curl -sf localhost:8080/graphs/sbm/stats)
echo "$stats" | grep -q '"mapped": *false' || { echo "::error::written graph still reports mapped storage: $stats"; exit 1; }
echo "$stats" | grep -q '"count": *4' || { echo "::error::written graph lost its 4-shard layout: $stats"; exit 1; }
echo "shard-smoke: ok"
