// Package shard partitions a graph's node set into a fixed number of
// contiguous ranges and evaluates the random-walk operator across them,
// choosing the kernel from the input of each application. Every
// application starts as the serial push kernel on the caller's goroutine
// (graph.Walk.PushUnder), which skips every row the frontier has not
// reached and decides as it scans. A sparse input — the first hops from a
// seed, which touch a sliver of the edges — is answered by that push alone;
// parallelism for those hops comes from the batch worker pool running many
// queries at once, not from the shards. A dense input — every step of
// preprocessing, and the late hops of a query whose frontier has spread —
// makes the push give up, and the operator scatter-gathers instead: one
// goroutine per shard fills its own destination range with the pull kernel,
// with no cross-shard synchronization beyond the final join.
//
// Either kernel evaluates the same product; they differ only in the order a
// destination row's terms are summed (pull: ascending in-neighbor id, push:
// ascending source id with a dangling self-loop term in its id order rather
// than last), which is what makes sharded engines agree with unsharded ones
// to float-summation order regardless of the partition.
//
// Shards are made contiguous by relabeling: PlanShards runs community-aware
// label propagation (internal/reorder) capped at the target shard size, then
// merges the resulting parts into exactly Shards balanced groups and lays
// the groups out consecutively. Queries over the permuted graph therefore
// keep each shard's working set dense in memory, with the partition
// boundaries exported so preprocessing, queries, snapshots and stats all
// agree on what a shard is. The plan is the only node layout an engine is
// built with.
package shard

import (
	"fmt"
	"sort"
	"sync/atomic"

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

// Operator evaluates a walk's Ãᵀ over fixed contiguous shard ranges and is
// direction-optimising: each MulT hands x to the base walk's push kernel
// with a budget of m/pushVolumeDiv out-edges, and that answer stands unless
// x's non-zero rows hold the budget or more; then it runs the serial
// per-matvec prologue once and one goroutine per shard fills its own
// destination range with the pull kernel, overwriting the push's partial
// product. It implements rwr.Operator and rwr.Operator32; it is deliberately
// not an rwr.BlockOperator, so rwr.Sharded leaves it as it is and
// preprocessing (always dense) fans out across the same shards as dense
// query hops do.
type Operator struct {
	w      *graph.Walk
	bounds []int
	// budget is the push kernel's out-volume budget, m/pushVolumeDiv.
	budget int64
	// pushes and pulls count the applications each kernel answered.
	pushes, pulls atomic.Int64
}

// pushVolumeDiv sets the switch between the kernels: an application pushes
// while the out-edges of x's non-zero rows number fewer than
// m/pushVolumeDiv. The push kernel's cost grows with that volume (random
// writes); the pull fan-out's is a flat O(m) divided among the shards'
// goroutines. BenchmarkShardMulT sweeps the density in float32 with 2
// shards, on a 2-vCPU VM: on the 100k-node SBM push takes 0.16 / 0.21 /
// 0.56 / 1.3 / 3.5 ms at 0.1 / 1 / 6 / 25 / 100 % non-zero rows against
// 2.0–2.3 ms for the pull, and on the 2¹⁷-node R-MAT graph 0.21 / 0.27 /
// 0.67 / 1.8 / 4.2 ms against 3.3–3.7 ms. The two cross between m/4 and m
// there (an earlier box with a 1.2 ms pull crossed just above m/4), and
// every further core moves the crossing down, so m/4 stays. A query's hops
// on community graphs sit two orders of magnitude below it; its real
// iterates (the hops rows) cost 0.19 ms per hop on the SBM and 1.3 ms on
// R-MAT, where the 4th hop of five of the eight seeds pulls.
const pushVolumeDiv = 4

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
	return &Operator{w: w, bounds: bounds, budget: w.Graph().NumEdges() / pushVolumeDiv}, nil
}

// N returns the node count.
func (o *Operator) N() int { return o.w.N() }

// NumShards returns the number of shard ranges.
func (o *Operator) NumShards() int { return len(o.bounds) - 1 }

// Bounds returns the shard boundaries (aliases internal storage; do not
// modify).
func (o *Operator) Bounds() []int { return o.bounds }

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

// MatvecCounts reports how many applications (MulT and MulT32 together) the
// push kernel and the pull fan-out have answered since the operator was
// built — how an operator sees whether a graph's queries stay sparse.
func (o *Operator) MatvecCounts() (push, pull int64) {
	return o.pushes.Load(), o.pulls.Load()
}

// MulT computes y = Ãᵀ·x: by the serial push kernel while x's out-volume
// stays under budget, else by scatter-gather — each shard's destination
// range is filled concurrently.
func (o *Operator) MulT(x, y sparse.Vector) sparse.Vector {
	if o.w.PushUnder(x, y, o.budget) {
		o.pushes.Add(1)
		return y
	}
	o.pulls.Add(1)
	rwr.ForEachBlock(o.bounds, func(lo, hi int) { o.w.MulTBlock(x, y, lo, hi) })
	return y
}

// MulT32 is MulT over float32 storage (rwr.Operator32), so sharded engines
// keep the reduced-precision online path.
func (o *Operator) MulT32(x, y sparse.Vector32) sparse.Vector32 {
	if o.w.PushUnder32(x, y, o.budget) {
		o.pushes.Add(1)
		return y
	}
	o.pulls.Add(1)
	rwr.ForEachBlock(o.bounds, func(lo, hi int) { o.w.MulTBlock32(x, y, lo, hi) })
	return y
}
