// Package shard plans a graph's shards: PlanShards partitions the node set
// into a fixed number of contiguous ranges after relabeling. It runs
// community-aware label propagation (internal/reorder) capped at the target
// shard size, then merges the resulting parts into exactly Shards balanced
// groups and lays the groups out consecutively. Queries over the permuted
// graph therefore keep each shard's working set dense in memory, with the
// partition boundaries exported so preprocessing, queries, snapshots and
// stats all agree on what a shard is. The plan is the only node layout an
// engine is built with, and its bounds become the row blocks a
// graph.Walk pulls over (graph.Walk.WithBlocks); the walk itself chooses
// push or pull per application. Operator and NewOperator are that walk
// under the names the benchmark trace compiles against.
package shard

import (
	"fmt"
	"sort"

	"tpa/internal/graph"
	"tpa/internal/reorder"
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

// Operator is the walk itself: a graph.Walk carries its row blocks and
// chooses push or pull per application. The name stays for the benchmark
// trace, which compiles against it.
type Operator = graph.Walk

// NewOperator is w.WithBlocks(bounds): w's walk with the shard partition
// bounds (ascending from 0 to w.N(), one range per shard) as its row
// blocks. It stays for the benchmark trace, which calls it.
func NewOperator(w *graph.Walk, bounds []int) (*Operator, error) { return w.WithBlocks(bounds) }
