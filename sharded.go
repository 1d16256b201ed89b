package tpa

import (
	"fmt"

	"tpa/internal/graph"
	"tpa/internal/reorder"
	"tpa/internal/shard"
)

// shardLPRounds is the label-propagation sweep count NewSharded uses to
// discover community structure before cutting shard boundaries — the same
// default as the NB-LIN partitioner.
const shardLPRounds = 10

// NewSharded is New with the graph partitioned into shards contiguous node
// ranges that dense Ãᵀ applications scatter-gather across: preprocessing,
// and any query hop whose frontier has grown past a quarter of the edges,
// fan out one goroutine per shard, each filling only its own destination
// range. The sparse hops of a query — normally all of them — push serially
// on the calling goroutine, touching only the frontier's out-edges, so
// query parallelism comes from the batch worker pool (QueryBatch,
// TopKBatch), not from the shards. Shard boundaries follow community
// structure (label propagation, merged into exactly shards balanced
// groups), so each shard's working set stays dense — node ids remain the
// caller's, remapped at the API boundary exactly like Options.Order.
//
// Answers agree with an unsharded engine to float-summation order: either
// kernel evaluates the same product, so the partition and the choice of
// kernel change scheduling and the order of a row's sum, not the
// arithmetic. shards ≤ 1 builds a plain engine. Sharding supplies its own
// layout, so it cannot combine with Options.Order. ApplyEdges keeps the
// shard bounds fixed; snapshots of a sharded engine are TPAM only
// (SaveSnapshotMmap).
func NewSharded(g *Graph, shards int, o Options) (*Engine, error) {
	if shards <= 1 {
		return New(g, o)
	}
	if ord, err := reorder.ParseOrder(o.Order); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	} else if ord != reorder.OrderNatural {
		return nil, fmt.Errorf("tpa: Options.Order %q cannot combine with sharding (the shard plan is the ordering)", o.Order)
	}
	_, params := o.split()
	plan, err := shard.PlanShards(g, shards, shardLPRounds)
	if err != nil {
		return nil, fmt.Errorf("tpa: sharding: %w", err)
	}
	pg := g
	var inv []int32
	if plan.Perm != nil {
		if pg, err = graph.Permute(g, plan.Perm); err != nil {
			return nil, fmt.Errorf("tpa: sharding: %w", err)
		}
		inv = graph.InvertPermutation(plan.Perm)
	}
	w := graph.NewWalk(pg, graph.DanglingSelfLoop)
	op, err := shard.NewOperator(w, plan.Bounds)
	if err != nil {
		return nil, fmt.Errorf("tpa: sharding: %w", err)
	}
	return (&Engine{walk: w, shardOp: op, perm: plan.Perm, inv: inv}).build(op, params, o)
}

// NumShards returns the number of scatter-gather shards the engine fans
// dense applications across: 1 for unsharded engines.
func (e *Engine) NumShards() int {
	if e.shardOp == nil {
		return 1
	}
	return e.shardOp.NumShards()
}

// ShardLayout returns per-shard node and out-edge counts (indexed by shard),
// or nil for unsharded engines. For introspection, stats endpoints and
// tests; the counts describe the internal (shard-contiguous) layout.
func (e *Engine) ShardLayout() (nodes []int, edges []int64) {
	if e.shardOp == nil {
		return nil, nil
	}
	stats := e.shardOp.ShardStats()
	nodes = make([]int, len(stats))
	edges = make([]int64, len(stats))
	for i, s := range stats {
		nodes[i] = s.Nodes
		edges[i] = s.Edges
	}
	return nodes, edges
}

// ShardMatvecs reports how many Ãᵀ applications of a sharded engine —
// preprocessing and queries alike — were answered by the serial push kernel
// (sparse input) and by the pull fan-out across shards (dense input) since
// it was built or loaded; both are 0 for unsharded engines. A pull count
// that grows with query traffic marks a graph whose queries go dense.
func (e *Engine) ShardMatvecs() (push, pull int64) {
	if e.shardOp == nil {
		return 0, 0
	}
	return e.shardOp.MatvecCounts()
}
