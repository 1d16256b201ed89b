package graph

import (
	"errors"
	"sort"

	"tpa/internal/sparse"
)

// ErrBadEdge is wrapped by every mutation rejected for referencing a node
// outside the graph's fixed node range. Test with errors.Is; callers can
// use it to separate caller mistakes from internal failures.
var ErrBadEdge = errors.New("edge outside the fixed node range")

// Delta is a mutable edge overlay on top of an immutable base Graph: edge
// insert/remove batches are recorded as full replacement out-neighbor lists
// for the rows they dirty, everything else reads through to the base CSR.
// This is the substrate of dynamic graph updates — queries keep running
// against the base arrays plus a small overlay until the overlay is
// compacted into a fresh CSR (Compact), so a mutation never rewrites the
// O(n+m) adjacency it rides on.
//
// The node set is fixed by the base graph: mutations may only reference
// ids in [0, NumNodes()). Growing the node set changes the dimension of
// every preprocessed vector and therefore requires a full rebuild by
// construction.
//
// The serving write path does not use it: tpa.Engine.ApplyEdges rebuilds
// with Graph.WithEdges, which produces the same arrays as Apply followed by
// Compact. Delta stays as the overlay the benchmark's trace replays and as
// the reference WithEdges is tested against.
//
// A Delta is NOT safe for concurrent mutation; the intended discipline is
// copy-on-write — Clone the delta, Apply to the clone, and swap whatever
// serves queries. Reads (OutNeighbors, MulT through a DeltaWalk) are safe to
// share once mutation stops.
type Delta struct {
	base *Graph
	// rows holds the replacement out-neighbor list (sorted, deduplicated)
	// of every dirty row. A row present with an empty slice means "all
	// out-edges removed". Stored slices are immutable: Apply builds new
	// ones, so clones can share them freely.
	rows map[int32][]int32
	// edges is the current total edge count (base plus overlay effect).
	edges int64
	// ops counts the mutations that took effect since the base CSR was
	// built; Staleness derives from it.
	ops int64
}

// NewDelta returns an empty overlay over base.
func NewDelta(base *Graph) *Delta {
	return &Delta{base: base, rows: make(map[int32][]int32), edges: base.NumEdges()}
}

// Clone returns an independent copy of d: mutations applied to the clone
// never show through to d. Row slices are shared (they are immutable).
func (d *Delta) Clone() *Delta {
	rows := make(map[int32][]int32, len(d.rows))
	for u, ns := range d.rows {
		rows[u] = ns
	}
	return &Delta{base: d.base, rows: rows, edges: d.edges, ops: d.ops}
}

// Base returns the immutable graph the overlay sits on.
func (d *Delta) Base() *Graph { return d.base }

// NumNodes returns the (fixed) node count.
func (d *Delta) NumNodes() int { return d.base.NumNodes() }

// NumEdges returns the current edge count, overlay included.
func (d *Delta) NumEdges() int64 { return d.edges }

// Ops returns the number of mutations applied since the base CSR was built.
func (d *Delta) Ops() int64 { return d.ops }

// DirtyRows returns the number of rows with a replacement list.
func (d *Delta) DirtyRows() int { return len(d.rows) }

// Staleness is the accumulated mutation volume relative to the base graph:
// ops / max(1, base edges). Compaction and full-reindex policies trigger on
// it.
func (d *Delta) Staleness() float64 {
	base := d.base.NumEdges()
	if base < 1 {
		base = 1
	}
	return float64(d.ops) / float64(base)
}

// OutNeighbors returns the current sorted out-neighbor list of u: the
// replacement list when u is dirty, the base row otherwise. The slice
// aliases internal storage and must not be modified.
func (d *Delta) OutNeighbors(u int) []int32 {
	if ns, dirty := d.rows[int32(u)]; dirty {
		return ns
	}
	return d.base.OutNeighbors(u)
}

// OutDegree returns the current out-degree of u.
func (d *Delta) OutDegree(u int) int { return len(d.OutNeighbors(u)) }

// HasEdge reports whether u→v exists in the current (overlaid) graph.
func (d *Delta) HasEdge(u, v int) bool {
	ns := d.OutNeighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return int(ns[i]) >= v })
	return i < len(ns) && int(ns[i]) == v
}

func (d *Delta) checkEdge(u, v int) error { return checkEdge(d.base.NumNodes(), u, v) }

// Apply records an edge batch: every edge of adds is inserted, then every
// edge of removes is deleted (an edge named by both ends up absent).
// Inserting an existing edge or removing a missing one is a no-op; the
// returned counts are the mutations that actually took effect. Edges must
// reference existing nodes — a bad id fails the whole batch up front with
// no partial application.
func (d *Delta) Apply(adds, removes [][2]int) (added, removed int, err error) {
	for _, e := range adds {
		if err := d.checkEdge(e[0], e[1]); err != nil {
			return 0, 0, err
		}
	}
	for _, e := range removes {
		if err := d.checkEdge(e[0], e[1]); err != nil {
			return 0, 0, err
		}
	}
	// Group the batch by source row so each dirty row is rebuilt once.
	type rowOps struct{ add, del []int32 }
	touched := make(map[int32]*rowOps)
	row := func(u int32) *rowOps {
		ops := touched[u]
		if ops == nil {
			ops = &rowOps{}
			touched[u] = ops
		}
		return ops
	}
	for _, e := range adds {
		ops := row(int32(e[0]))
		ops.add = append(ops.add, int32(e[1]))
	}
	for _, e := range removes {
		ops := row(int32(e[0]))
		ops.del = append(ops.del, int32(e[1]))
	}
	for u, ops := range touched {
		cur := d.OutNeighbors(int(u))
		next := make([]int32, 0, len(cur)+len(ops.add))
		next = append(next, cur...)
		changed := false
		for _, v := range ops.add {
			i := sort.Search(len(next), func(i int) bool { return next[i] >= v })
			if i < len(next) && next[i] == v {
				continue // already present
			}
			next = append(next, 0)
			copy(next[i+1:], next[i:])
			next[i] = v
			added++
			changed = true
		}
		for _, v := range ops.del {
			i := sort.Search(len(next), func(i int) bool { return next[i] >= v })
			if i >= len(next) || next[i] != v {
				continue // already absent
			}
			next = append(next[:i], next[i+1:]...)
			removed++
			changed = true
		}
		// All no-ops: the row is unchanged, don't dirty it.
		if changed {
			d.rows[u] = next
		}
	}
	d.edges += int64(added) - int64(removed)
	d.ops += int64(added + removed)
	return added, removed, nil
}

// Compact merges the overlay into a fresh immutable Graph (CSR plus the
// rebuilt CSC mirror). The delta itself is unchanged; the caller typically
// discards it and starts a new overlay on the returned graph.
func (d *Delta) Compact() *Graph {
	n := d.base.NumNodes()
	g := &Graph{
		n:      n,
		outPtr: make([]int64, n+1),
		outIdx: make([]int32, 0, d.edges),
	}
	for u := 0; u < n; u++ {
		ns := d.OutNeighbors(u)
		g.outIdx = append(g.outIdx, ns...)
		g.outPtr[u+1] = g.outPtr[u] + int64(len(ns))
	}
	g.buildCSC()
	return g
}

// DeltaWalk is the row-normalized random-walk operator of a Delta: the
// dynamic counterpart of Walk, implementing rwr.Operator over the overlaid
// adjacency so CPI and TPA queries run against the mutated graph without a
// compaction. It also implements the block interface rwr.Sharded fans out
// over (MulTPrep/MulTBlock), so sharded preprocessing and incremental
// reindexing keep their -workers parallelism on an uncompacted overlay. It
// is safe for concurrent MulT calls once mutation stops (copy-on-write
// discipline).
type DeltaWalk struct {
	d      *Delta
	policy DanglingPolicy
	// invdeg[u] = 1/outdeg(u) under the overlay, 0 for dangling nodes.
	invdeg []float64
	// dirty[u] reports that row u has a replacement list; the blockwise
	// gather skips dirty sources in the base CSC and applies their
	// replacement lists separately.
	dirty []bool
	// dangling lists the overlay-dangling nodes in ascending order, for
	// the DanglingUniform prologue.
	dangling []int32
}

// NewDeltaWalk wraps d with the given dangling policy.
func NewDeltaWalk(d *Delta, policy DanglingPolicy) *DeltaWalk {
	n := d.NumNodes()
	w := &DeltaWalk{d: d, policy: policy, invdeg: make([]float64, n), dirty: make([]bool, n)}
	for u := 0; u < n; u++ {
		if deg := d.OutDegree(u); deg > 0 {
			w.invdeg[u] = 1 / float64(deg)
		} else {
			w.dangling = append(w.dangling, int32(u))
		}
	}
	for u := range d.rows {
		w.dirty[u] = true
	}
	return w
}

// Delta returns the underlying overlay.
func (w *DeltaWalk) Delta() *Delta { return w.d }

// Policy returns the dangling-node policy.
func (w *DeltaWalk) Policy() DanglingPolicy { return w.policy }

// N returns the number of nodes.
func (w *DeltaWalk) N() int { return w.d.NumNodes() }

// MulT computes y = Ãᵀ·x over the overlaid adjacency into the provided
// buffer y (zeroed first) and returns y — the same contract as Walk.MulT.
func (w *DeltaWalk) MulT(x, y sparse.Vector) sparse.Vector {
	y.Zero()
	n := w.d.NumNodes()
	var danglingMass float64
	for u := 0; u < n; u++ {
		xu := x[u]
		if xu == 0 {
			continue
		}
		ns := w.d.OutNeighbors(u)
		if len(ns) == 0 {
			switch w.policy {
			case DanglingSelfLoop:
				y[u] += xu
			case DanglingUniform:
				danglingMass += xu
			case DanglingDrop:
				// mass vanishes
			}
			continue
		}
		share := xu * w.invdeg[u]
		for _, v := range ns {
			y[v] += share
		}
	}
	if danglingMass != 0 {
		u := danglingMass / float64(n)
		for i := range y {
			y[i] += u
		}
	}
	return y
}

// MulTPrep is the serial per-matvec prologue of the blockwise overlay
// application: the uniform dangling term under DanglingUniform, computed
// from the overlay's own dangling list (0 for the other policies). Same
// contract as Walk.MulTPrep.
func (w *DeltaWalk) MulTPrep(x sparse.Vector) float64 {
	if w.policy != DanglingUniform {
		return 0
	}
	var mass float64
	for _, u := range w.dangling {
		mass += x[u]
	}
	return mass / float64(w.d.NumNodes())
}

// MulTBlock computes the destination rows y[lo:hi) of y = Ãᵀ·x over the
// overlaid adjacency, touching nothing outside the block, so disjoint
// blocks run concurrently — the contract rwr.Sharded fans out over. Clean
// rows gather over the base CSC with dirty sources skipped; each dirty
// row's replacement list then scatters its share into the block's slice of
// the destination range (a binary search bounds it to [lo, hi)).
func (w *DeltaWalk) MulTBlock(x, y sparse.Vector, lo, hi int, uniform float64) {
	base := w.d.base
	for v := lo; v < hi; v++ {
		var s float64
		for _, u := range base.InNeighbors(v) {
			if !w.dirty[u] {
				s += x[u] * w.invdeg[u]
			}
		}
		if w.policy == DanglingSelfLoop && w.invdeg[v] == 0 {
			s += x[v]
		}
		y[v] = s + uniform
	}
	for u, ns := range w.d.rows {
		xu := x[u]
		if xu == 0 {
			continue
		}
		share := xu * w.invdeg[u]
		i := sort.Search(len(ns), func(i int) bool { return int(ns[i]) >= lo })
		for ; i < len(ns) && int(ns[i]) < hi; i++ {
			y[ns[i]] += share
		}
	}
}
