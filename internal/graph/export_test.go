package graph

import (
	"math"

	"tpa/internal/sparse"
)

// Kernel hooks for the external graph_test package's benchmarks: each side
// of MulT32's switch on its own.

// Push32 runs the float32 push kernel with no budget.
func (w *Walk) Push32(x, y sparse.Vector32) { pushUnder(w, w.invdeg32, x, y, math.MaxInt64) }

// Pull32 runs the float32 pull fan-out over w's row blocks.
func (w *Walk) Pull32(x, y sparse.Vector32) { forEachBlock(w, w.invdeg32, x, y) }
