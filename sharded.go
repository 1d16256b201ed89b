package tpa

import (
	"fmt"

	"tpa/internal/graph"
	"tpa/internal/shard"
)

// shardLPRounds is the label-propagation sweep count NewSharded uses to
// discover community structure before cutting shard boundaries — the same
// default as the NB-LIN partitioner.
const shardLPRounds = 10

// NewSharded is New with the graph partitioned into shards contiguous node
// ranges that serve as the walk's row blocks: preprocessing, a write's
// reindex and any query hop whose frontier has grown past a quarter of the
// edges fan out one goroutine per shard, each filling only its own
// destination range. The sparse hops of a query — normally all of them —
// push serially on the calling goroutine, touching only the frontier's
// out-edges, so query parallelism comes from the worker pool of an Each
// request (see Engine.Answer), not from the shards. Shard boundaries follow
// community structure (label propagation, merged into exactly shards
// balanced groups), so each shard's working set stays dense — node ids
// remain the caller's, remapped at the API boundary (see remap.go).
//
// Answers agree with an unsharded engine to float-summation order: the
// partition only changes the node order, and so the order of a row's sum,
// not the arithmetic. shards ≤ 1 builds a plain engine. ApplyEdges keeps
// the shard bounds fixed; snapshots of a sharded engine are TPAM only
// (SaveSnapshotMmap).
func NewSharded(g *Graph, shards int, o Options) (*Engine, error) {
	if shards <= 1 {
		return New(g, o)
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
	w, err := graph.NewWalk(pg, graph.DanglingSelfLoop).WithBlocks(plan.Bounds)
	if err != nil {
		return nil, fmt.Errorf("tpa: sharding: %w", err)
	}
	return (&Engine{walk: w, shards: plan.Bounds, perm: plan.Perm, inv: inv}).build(params, o)
}

// NumShards returns the number of shards the engine fans dense
// applications across: 1 for unsharded engines.
func (e *Engine) NumShards() int {
	if e.shards == nil {
		return 1
	}
	return len(e.shards) - 1
}

// ShardLayout returns per-shard node and out-edge counts (indexed by shard),
// or nil for unsharded engines. For introspection, stats endpoints and
// tests; the counts describe the internal (shard-contiguous) layout. Edge
// counts are read off the CSR row pointers in O(1) per shard.
func (e *Engine) ShardLayout() (nodes []int, edges []int64) {
	if e.shards == nil {
		return nil, nil
	}
	outPtr, _ := e.walk.Graph().RawCSR()
	nodes = make([]int, e.NumShards())
	edges = make([]int64, e.NumShards())
	for i := range nodes {
		lo, hi := e.shards[i], e.shards[i+1]
		nodes[i], edges[i] = hi-lo, outPtr[hi]-outPtr[lo]
	}
	return nodes, edges
}

// ShardMatvecs reports how many Ãᵀ applications of a sharded engine —
// preprocessing and queries alike — were answered by the serial push kernel
// (sparse input) and by the pull fan-out across shards (dense input) since
// it was built or loaded; both are 0 for unsharded engines. A pull count
// that grows with query traffic marks a graph whose queries go dense.
func (e *Engine) ShardMatvecs() (push, pull int64) {
	if e.shards == nil {
		return 0, 0
	}
	return e.walk.MatvecCounts()
}
