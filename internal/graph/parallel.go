package graph

import (
	"sync"

	"tpa/internal/sparse"
)

// mulTBlock is the pull kernel: it computes the destination rows y[lo:hi)
// of y = Ãᵀ·x, leaving the rest of y untouched. A block gathers over the
// in-adjacency (CSC), so disjoint blocks share no output entries and can run
// concurrently without locking. Summation order within each row is fixed
// (ascending in-neighbor id, then a dangling row's self-loop term), so the
// result does not depend on the block partition — though it may differ from
// the push kernel's in the last bits. The CSC arrays are hoisted for the
// same reason as in pushRows.
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

// forEachBlock runs the pull kernel on every non-empty row block of w, one
// goroutine per block, and returns when all have finished. It is the one
// place the repository fans a matvec out over destination row blocks: each
// block writes only its own rows, so no further synchronization is needed.
// A single-block walk pulls on the caller's goroutine and allocates
// nothing; more blocks cost a goroutine each.
func forEachBlock[T sparse.Float](w *Walk, invdeg []T, x, y sparse.Vec[T]) {
	bounds := w.blocks
	if len(bounds) == 2 {
		mulTBlock(w, invdeg, x, y, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mulTBlock(w, invdeg, x, y, lo, hi)
		}()
	}
	wg.Wait()
}

// blockBounds partitions g's destination range [0, N) into at most workers
// contiguous blocks balanced by in-edge count — the work mulTBlock does per
// row. bounds[i] is the first node of block i; bounds[len(bounds)-1] = N.
// NewWalk gives every walk this partition with one block per GOMAXPROCS.
func blockBounds(g *Graph, workers int) []int {
	n := g.NumNodes()
	if workers > n && n > 0 {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, workers+1)
	per := g.NumEdges()/int64(workers) + 1
	b, acc := 1, int64(0)
	for v := 0; v < n && b < workers; v++ {
		acc += int64(g.InDegree(v))
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
