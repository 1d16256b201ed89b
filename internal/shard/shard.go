// Package shard partitions a graph's node set into a fixed number of
// contiguous ranges and evaluates the random-walk operator by
// scatter-gather across them: every Ãᵀ application fans out one goroutine
// per shard, each filling its own destination range, with no cross-shard
// synchronization beyond the final join. Because graph.Walk's block kernel
// computes each destination row independently (gathering in-neighbors in
// ascending order), the sharded product is numerically identical to the
// per-row serial one regardless of the partition — which is what makes
// sharded engines agree with unsharded ones to float-summation order.
//
// Shards are made contiguous by relabeling: PlanShards runs community-aware
// label propagation (internal/reorder) capped at the target shard size, then
// merges the resulting parts into exactly Shards balanced groups and lays
// the groups out consecutively. Queries over the permuted graph therefore
// keep each shard's working set dense in memory — the same locality argument
// as reorder-at-build, but with the partition boundaries exported so
// preprocessing, queries, snapshots and stats all agree on what a shard is.
package shard

import (
	"fmt"
	"sort"

	"tpa/internal/graph"
	"tpa/internal/reorder"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Plan is a sharding of a graph's id space into contiguous ranges after
// relabeling: shard i is the internal id range [Bounds[i], Bounds[i+1]).
type Plan struct {
	// Shards is the number of ranges; len(Bounds) == Shards+1.
	Shards int
	// Perm maps internal (shard-contiguous) ids back to the caller's ids,
	// perm[internal] = external. Nil means the natural order already serves
	// as the layout (contiguous plans and single-shard plans).
	Perm []int32
	// Bounds are the shard boundaries in internal id space, ascending from
	// 0 to n.
	Bounds []int
}

// PlanShards partitions g into exactly shards contiguous ranges. rounds > 0
// runs that many label-propagation rounds so shard boundaries follow
// community structure; rounds == 0 skips clustering and splits the natural
// order into equal ranges (no permutation — the cheap choice for huge graphs
// or graphs whose order is already meaningful). shards is clamped to the
// node count.
func PlanShards(g *graph.Graph, shards, rounds int) (*Plan, error) {
	n := g.NumNodes()
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	if n == 0 {
		return nil, fmt.Errorf("shard: empty graph")
	}
	if shards > n {
		shards = n
	}
	if shards == 1 {
		return &Plan{Shards: 1, Bounds: []int{0, n}}, nil
	}
	if rounds <= 0 {
		b := make([]int, shards+1)
		for i := 0; i <= shards; i++ {
			b[i] = i * n / shards
		}
		return &Plan{Shards: shards, Bounds: b}, nil
	}

	maxPart := (n + shards - 1) / shards
	p, err := reorder.LabelPropagation(g, maxPart, rounds)
	if err != nil {
		return nil, err
	}
	group := mergeParts(p.Sizes, shards)

	// Lay parts out by (group, part id): one counting pass computes each
	// part's start offset, a second pass scatters nodes — within a part the
	// natural order is kept, so the permutation is deterministic.
	type key struct{ group, part int }
	order := make([]key, len(p.Sizes))
	for id := range p.Sizes {
		order[id] = key{group[id], id}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].group != order[b].group {
			return order[a].group < order[b].group
		}
		return order[a].part < order[b].part
	})
	start := make([]int, len(p.Sizes))
	bounds := make([]int, shards+1)
	off := 0
	for _, k := range order {
		start[k.part] = off
		off += p.Sizes[k.part]
		bounds[k.group+1] = off
	}
	for i := 1; i <= shards; i++ {
		if bounds[i] == 0 {
			bounds[i] = bounds[i-1]
		}
	}
	perm := make([]int32, n)
	next := start
	for u := 0; u < n; u++ {
		part := p.Part[u]
		perm[next[part]] = int32(u)
		next[part]++
	}
	return &Plan{Shards: shards, Perm: perm, Bounds: bounds}, nil
}

// mergeParts assigns each part to one of groups groups, balancing total
// size greedily: parts are taken largest first and placed into the group
// with the smallest running total (first-fit-decreasing number
// partitioning). Deterministic: ties break toward the lower part id and
// the lower group index.
func mergeParts(sizes []int, groups int) []int {
	ids := make([]int, len(sizes))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if sizes[ids[a]] != sizes[ids[b]] {
			return sizes[ids[a]] > sizes[ids[b]]
		}
		return ids[a] < ids[b]
	})
	total := make([]int, groups)
	group := make([]int, len(sizes))
	for _, id := range ids {
		best := 0
		for gi := 1; gi < groups; gi++ {
			if total[gi] < total[best] {
				best = gi
			}
		}
		group[id] = best
		total[best] += sizes[id]
	}
	return group
}

// Stats describes one shard of an operator: its internal id range and the
// number of nodes and out-edges it holds.
type Stats struct {
	Lo, Hi int
	Nodes  int
	Edges  int64
}

// Operator evaluates a walk's Ãᵀ by scatter-gather over fixed contiguous
// shard ranges: MulT runs the serial per-matvec prologue once, then one
// goroutine per shard fills its own destination range with the gather
// kernel. It implements rwr.Operator and rwr.Operator32; it is deliberately
// not an rwr.BlockOperator, so rwr.Sharded leaves it as it is and
// preprocessing fans out across the same shards as queries do.
type Operator struct {
	w      *graph.Walk
	bounds []int
}

// NewOperator wraps w with the shard partition bounds (ascending from 0 to
// w.N(), one range per shard).
func NewOperator(w *graph.Walk, bounds []int) (*Operator, error) {
	n := w.N()
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return nil, fmt.Errorf("shard: bounds must run from 0 to %d", n)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("shard: bounds not ascending at %d", i)
		}
	}
	return &Operator{w: w, bounds: bounds}, nil
}

// N returns the node count.
func (o *Operator) N() int { return o.w.N() }

// NumShards returns the number of shard ranges.
func (o *Operator) NumShards() int { return len(o.bounds) - 1 }

// Bounds returns the shard boundaries (aliases internal storage; do not
// modify).
func (o *Operator) Bounds() []int { return o.bounds }

// BaseWalk returns the underlying in-memory walk — the capability snapshot
// writers and method builders look for.
func (o *Operator) BaseWalk() *graph.Walk { return o.w }

// ShardStats reports each shard's node range and size. Edge counts are
// out-edges of the shard's nodes, read off the CSR row pointers in O(1)
// per shard.
func (o *Operator) ShardStats() []Stats {
	outPtr, _ := o.w.Graph().RawCSR()
	stats := make([]Stats, o.NumShards())
	for i := range stats {
		lo, hi := o.bounds[i], o.bounds[i+1]
		stats[i] = Stats{Lo: lo, Hi: hi, Nodes: hi - lo, Edges: outPtr[hi] - outPtr[lo]}
	}
	return stats
}

// MulT computes y = Ãᵀ·x by scatter-gather: the dangling/uniform prologue
// runs once, then each shard's destination range is filled concurrently.
func (o *Operator) MulT(x, y sparse.Vector) sparse.Vector {
	prep := o.w.MulTPrep(x)
	rwr.ForEachBlock(o.bounds, func(lo, hi int) { o.w.MulTBlock(x, y, lo, hi, prep) })
	return y
}

// MulT32 is MulT over float32 storage (rwr.Operator32), so sharded engines
// keep the reduced-precision online path.
func (o *Operator) MulT32(x, y sparse.Vector32) sparse.Vector32 {
	prep := o.w.MulTPrep32(x)
	rwr.ForEachBlock(o.bounds, func(lo, hi int) { o.w.MulTBlock32(x, y, lo, hi, prep) })
	return y
}
