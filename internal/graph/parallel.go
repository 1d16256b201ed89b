package graph

import "tpa/internal/sparse"

// MulTBlock computes the destination rows y[lo:hi) of y = Ãᵀ·x, leaving the
// rest of y untouched. A block gathers over the in-adjacency (CSC), so
// disjoint blocks share no output entries and can run concurrently without
// locking; this is the row-block sharding of the CSR sparse-matvec that
// rwr.Sharded and shard.Operator fan out over goroutines. Summation order
// within each row is fixed (ascending in-neighbor id, then a dangling row's
// self-loop term), so results are deterministic for a given block partition
// — though they may differ from the serial scatter-order MulT in the last
// bits.
func (w *Walk) MulTBlock(x, y sparse.Vector, lo, hi int) {
	mulTBlock(w, w.invdeg, x, y, lo, hi)
}

// MulTBlock32 is MulTBlock over float32 storage.
func (w *Walk) MulTBlock32(x, y sparse.Vector32, lo, hi int) {
	mulTBlock(w, w.invdeg32, x, y, lo, hi)
}

// mulTBlock is the pull kernel behind MulTBlock and MulTBlock32 (CSC arrays
// hoisted for the same reason as in pushRows).
func mulTBlock[T sparse.Float](w *Walk, invdeg []T, x, y sparse.Vec[T], lo, hi int) {
	inPtr, inIdx := w.g.inPtr, w.g.inIdx
	for v := lo; v < hi; v++ {
		var s T
		for _, u := range inIdx[inPtr[v]:inPtr[v+1]] {
			s += x[u] * invdeg[u]
		}
		if invdeg[v] == 0 {
			s += x[v]
		}
		y[v] = s
	}
}

// BlockBounds partitions the destination range [0, N) into at most workers
// contiguous blocks balanced by in-edge count — the work MulTBlock does per
// row. bounds[i] is the first node of block i; bounds[len(bounds)-1] = N.
// rwr.Sharded uses this partition when sharding the operator.
func (w *Walk) BlockBounds(workers int) []int {
	n := w.g.NumNodes()
	if workers > n && n > 0 {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, workers+1)
	per := w.g.NumEdges()/int64(workers) + 1
	b, acc := 1, int64(0)
	for v := 0; v < n && b < workers; v++ {
		acc += int64(w.g.InDegree(v))
		if acc >= per*int64(b) {
			bounds[b] = v + 1
			b++
		}
	}
	for ; b < workers; b++ {
		bounds[b] = n
	}
	bounds[workers] = n
	return bounds
}
