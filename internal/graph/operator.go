package graph

import (
	"math"

	"tpa/internal/sparse"
)

// Walk is the row-normalized random-walk operator of a graph: it applies
// Ãᵀ (and variants) to score vectors without ever materializing the matrix.
// All RWR methods in this repository are built on it.
//
// Ã is the row-normalized out-adjacency: Ã[u][v] = 1/outdeg(u) if u→v.
// Applying Ãᵀ propagates scores along edge directions, splitting the score
// of u evenly across its out-neighbors — exactly the propagation picture CPI
// is defined with in §II-C of the paper.
type Walk struct {
	g *Graph
	// invdeg[u] = 1/outdeg(u), 0 for dangling nodes (the kernels give them
	// their self-loop).
	invdeg []float64
	// invdeg32 mirrors invdeg in float32 for the reduced-precision kernels;
	// kept alongside so either precision can gather without a conversion
	// pass.
	invdeg32 []float32
}

// NewWalk wraps g. policy must be DanglingSelfLoop, the only policy; any
// other value panics.
func NewWalk(g *Graph, policy DanglingPolicy) *Walk {
	mustSelfLoop(policy)
	n := g.NumNodes()
	w := &Walk{g: g, invdeg: make([]float64, n), invdeg32: make([]float32, n)}
	for u := 0; u < n; u++ {
		if d := g.OutDegree(u); d > 0 {
			w.invdeg[u] = 1 / float64(d)
			w.invdeg32[u] = float32(w.invdeg[u])
		}
	}
	return w
}

// Graph returns the underlying graph.
func (w *Walk) Graph() *Graph { return w.g }

// N returns the number of nodes.
func (w *Walk) N() int { return w.g.NumNodes() }

// InvOutDegree returns 1/outdeg(u), or 0 for a dangling node.
func (w *Walk) InvOutDegree(u int) float64 { return w.invdeg[u] }

// MulT computes y = Ãᵀ·x into the provided buffer y (which is zeroed first)
// and returns y. len(y) must equal len(x) == N.
func (w *Walk) MulT(x, y sparse.Vector) sparse.Vector {
	pushUnder(w, w.invdeg, x, y, math.MaxInt64)
	return y
}

// MulT32 is MulT over float32 storage (rwr.Operator32). Halving the element
// size halves the random-access working set (x[u] and invdeg[u] per edge),
// which is where the hot path spends its time once the vectors outgrow L2.
// Sums accumulate in float32; the precision loss is covered by the explicit
// float32 tolerance the accuracy suite asserts on top of the Theorem-2
// bound.
func (w *Walk) MulT32(x, y sparse.Vector32) sparse.Vector32 {
	pushUnder(w, w.invdeg32, x, y, math.MaxInt64)
	return y
}

// PushUnder is MulT for a caller that holds a cheaper kernel for dense
// inputs: it computes y = Ãᵀ·x and reports true while the out-edges of x's
// non-zero rows number fewer than budget. Otherwise it reports false and
// leaves y holding a partial product, which the caller must overwrite in
// full (the pull kernel, MulTBlock, writes every entry). When it reports
// true, y is MulT(x, y) bit for bit.
func (w *Walk) PushUnder(x, y sparse.Vector, budget int64) bool {
	return pushUnder(w, w.invdeg, x, y, budget)
}

// PushUnder32 is PushUnder over float32 storage.
func (w *Walk) PushUnder32(x, y sparse.Vector32, budget int64) bool {
	return pushUnder(w, w.invdeg32, x, y, budget)
}

// inlineDiv sets how much of a budget pushUnder spends before it looks
// ahead: rows are pushed as the scan meets them while their cumulative
// out-volume stays under budget/inlineDiv, so a sparse x (a query's early
// hops) is scanned once. Past that, one tight loop measures the rest of x,
// and a dense x then wastes at most 1/inlineDiv of the budget on pushes the
// caller's pull overwrites. BenchmarkShardMulT reads the trade: an x under
// budget/inlineDiv costs its push and nothing more, while a dense one pays,
// on top of the pull, a scan of x and the m/64 edges pushed before the
// look-ahead.
const inlineDiv = 16

// pushUnder is the push kernel behind MulT, MulT32 and the PushUnder pair:
// every non-zero x[u] scatters its share along u's out-edges in ascending
// u, so a sparse x skips the rows it does not touch. invdeg is w's
// normalization in the element width of x and y. It decides as it scans:
// rows are pushed until their out-volume reaches budget/inlineDiv, then
// volumeReaches measures the rest of x once, and the push either finishes
// from the first unpushed row or stops for the caller's pull.
func pushUnder[T sparse.Float](w *Walk, invdeg []T, x, y sparse.Vec[T], budget int64) bool {
	y.Zero()
	n := w.g.n
	x = x[:n]
	inline := budget / inlineDiv
	u, left := pushRows(w, invdeg, x, y, 0, inline)
	if u < n {
		if volumeReaches(x, w.g.outPtr, u, budget-inline+left) {
			return false
		}
		pushRows(w, invdeg, x, y, u, math.MaxInt64)
	}
	return true
}

// pushRows pushes x's non-zero rows into y from row from on, in ascending
// id; a dangling row keeps its mass through its self-loop. It stops before
// the first row whose out-edges would exhaust left and returns that row
// (len(x) once every row is pushed) and what is left. left is the one
// value the loop carries beyond a plain push: with a volume and a limit
// both live, the compiler spilled the row counter to the stack, and with
// the zero skip behind a call per row it reloaded every live value after
// each call.
func pushRows[T sparse.Float](w *Walk, invdeg []T, x, y sparse.Vec[T], from int, left int64) (int, int64) {
	// The CSR arrays are hoisted out of w.g: with the extra generic
	// arguments live, reloading them per row cost ~5% on a dense x.
	outPtr, outIdx := w.g.outPtr, w.g.outIdx
	for u := from; u < len(x); u++ {
		xu := x[u]
		if xu == 0 {
			continue
		}
		start, end := outPtr[u], outPtr[u+1]
		if end-start >= left {
			return u, left
		}
		left -= end - start
		if start == end {
			y[u] += xu
			continue
		}
		share := xu * invdeg[u]
		for _, v := range outIdx[start:end] {
			y[v] += share
		}
	}
	return len(x), left
}

// volumeReaches reports whether the out-edges of x's non-zero rows at or
// after from number at least need, reading only x and the row pointers and
// leaving at the row that reaches it. A zero row's degree is masked rather
// than skipped by a branch: on a random pattern of 6–25 % non-zero rows the
// branch mispredicted so often that the scan cost a third of the push
// after it.
func volumeReaches[T sparse.Float](x sparse.Vec[T], outPtr []int64, from int, need int64) bool {
	for u := from; u < len(x); u++ {
		d := outPtr[u+1] - outPtr[u]
		if x[u] == 0 {
			d = 0
		}
		if need -= d; need <= 0 {
			return true
		}
	}
	return false
}

// Column materializes column s of Ãᵀ (equivalently row s of Ã scattered to
// destinations): the one-step distribution of a walk standing at s.
func (w *Walk) Column(s int) sparse.Vector {
	x := sparse.NewVector(w.N())
	x[s] = 1
	y := sparse.NewVector(w.N())
	return w.MulT(x, y)
}
