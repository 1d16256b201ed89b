package rwr

import (
	"runtime"
	"sync"

	"tpa/internal/sparse"
)

// BlockOperator is an Operator whose Ãᵀ application can be evaluated on
// contiguous destination (row) blocks independently: MulTBlock fills
// exactly y[lo:hi) and touches nothing else, so disjoint blocks can run on
// separate goroutines with no synchronization. graph.Walk implements it by
// gathering over the in-adjacency; operators that cannot shard simply don't
// implement it.
type BlockOperator interface {
	Operator
	MulTBlock(x, y sparse.Vector, lo, hi int)
}

// blockBounder is an optional refinement of BlockOperator: the operator
// proposes its own block partition (e.g. balanced by edge count rather than
// node count). Sharded falls back to equal node ranges otherwise.
type blockBounder interface {
	BlockBounds(workers int) []int
}

// Sharded returns an operator equivalent to op whose MulT shards the
// sparse-matvec over workers goroutines, one contiguous row block each
// (0 means GOMAXPROCS). When op does not implement BlockOperator, or the
// worker count resolves to 1, op itself is returned — callers can request
// sharding unconditionally and pay nothing when it does not apply.
func Sharded(op Operator, workers int) Operator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := op.N(); workers > n {
		workers = n
	}
	bop, ok := op.(BlockOperator)
	if !ok || workers <= 1 {
		return op
	}
	var bounds []int
	if bb, ok := op.(blockBounder); ok {
		bounds = bb.BlockBounds(workers)
	} else {
		n := op.N()
		bounds = make([]int, workers+1)
		for i := 0; i <= workers; i++ {
			bounds[i] = i * n / workers
		}
	}
	return &sharded{op: bop, bounds: bounds}
}

// sharded fans MulT out over a fixed row-block partition of a BlockOperator.
type sharded struct {
	op     BlockOperator
	bounds []int
}

// N returns the node count of the wrapped operator.
func (s *sharded) N() int { return s.op.N() }

// MulT computes y = Ãᵀ·x with one goroutine per row block.
func (s *sharded) MulT(x, y sparse.Vector) sparse.Vector {
	ForEachBlock(s.bounds, func(lo, hi int) { s.op.MulTBlock(x, y, lo, hi) })
	return y
}

// ForEachBlock runs fn(lo, hi) for every non-empty block
// [bounds[i], bounds[i+1]) of an ascending partition, one goroutine per
// block, and returns when all have finished. It is the one place the
// repository fans a matvec out over destination row blocks: fn must write
// only rows of its own block, so no further synchronization is needed. A
// single-block partition runs on the caller's goroutine.
func ForEachBlock(bounds []int, fn func(lo, hi int)) {
	if len(bounds) == 2 {
		fn(bounds[0], bounds[1])
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
			fn(lo, hi)
		}()
	}
	wg.Wait()
}
