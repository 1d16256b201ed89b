package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"tpa/internal/sparse"
)

// Walk is the row-normalized random-walk operator of a graph: it applies
// Ãᵀ to score vectors without ever materializing the matrix. All RWR
// methods in this repository are built on it.
//
// Ã is the row-normalized out-adjacency: Ã[u][v] = 1/outdeg(u) if u→v.
// Applying Ãᵀ propagates scores along edge directions, splitting the score
// of u evenly across its out-neighbors — exactly the propagation picture CPI
// is defined with in §II-C of the paper.
//
// A Walk chooses its kernel per application. Every application starts as
// the serial push kernel on the caller's goroutine, which skips every row x
// has not reached and decides as it scans. A sparse x — the first hops from
// a seed, which touch a sliver of the edges — is answered by that push
// alone; parallelism for those hops comes from the batch worker pool
// running many queries at once. A dense x — every step of preprocessing and
// of a write's reindex, and the late hops of a query whose frontier has
// spread — makes the push give up, and the Walk pulls instead: one
// goroutine per row block fills its own destination range, with no
// synchronization beyond the final join. Either kernel evaluates the same
// product; they differ only in the order a destination row's terms are
// summed (pull: ascending in-neighbor id, then a dangling row's self-loop
// term; push: ascending source id), so the blocks change scheduling, never
// a pulled answer's bits.
type Walk struct {
	g *Graph
	// invdeg[u] = 1/outdeg(u), 0 for dangling nodes (the kernels give them
	// their self-loop).
	invdeg []float64
	// invdeg32 mirrors invdeg in float32 for the reduced-precision kernels;
	// kept alongside so either precision can gather without a conversion
	// pass.
	invdeg32 []float32
	// blocks are the pull's row blocks, ascending from 0 to N: block i is
	// the destination range [blocks[i], blocks[i+1]).
	blocks []int
	// pushes and pulls count the applications each kernel answered.
	pushes, pulls atomic.Int64
}

// NewWalk wraps g with row blocks balanced by in-edge count, one per
// GOMAXPROCS. policy must be DanglingSelfLoop, the only policy; any other
// value panics.
func NewWalk(g *Graph, policy DanglingPolicy) *Walk {
	mustSelfLoop(policy)
	n := g.NumNodes()
	w := &Walk{g: g, invdeg: make([]float64, n), invdeg32: make([]float32, n),
		blocks: blockBounds(g, runtime.GOMAXPROCS(0))}
	for u := 0; u < n; u++ {
		if d := g.OutDegree(u); d > 0 {
			w.invdeg[u] = 1 / float64(d)
			w.invdeg32[u] = float32(w.invdeg[u])
		}
	}
	return w
}

// WithBlocks returns a walk over the same graph and normalization whose
// pull fans out over bounds instead (a shard plan's ranges: ascending from
// 0 to N, empty ranges allowed). The new walk's kernel counters start at 0;
// w is unchanged.
func (w *Walk) WithBlocks(bounds []int) (*Walk, error) {
	n := w.N()
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return nil, fmt.Errorf("graph: block bounds must run from 0 to %d", n)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("graph: block bounds not ascending at %d", i)
		}
	}
	return &Walk{g: w.g, invdeg: w.invdeg, invdeg32: w.invdeg32, blocks: bounds}, nil
}

// Graph returns the underlying graph.
func (w *Walk) Graph() *Graph { return w.g }

// N returns the number of nodes.
func (w *Walk) N() int { return w.g.NumNodes() }

// MatvecCounts reports how many applications (MulT and MulT32 together) the
// push kernel and the pull fan-out have answered since the walk was built —
// how an operator sees whether a graph's queries stay sparse.
func (w *Walk) MatvecCounts() (push, pull int64) {
	return w.pushes.Load(), w.pulls.Load()
}

// InvOutDegree returns 1/outdeg(u), or 0 for a dangling node.
func (w *Walk) InvOutDegree(u int) float64 { return w.invdeg[u] }

// MulT computes y = Ãᵀ·x into the provided buffer y (every entry is
// overwritten) and returns y. len(y) must equal len(x) == N. The push
// kernel answers while the out-edges of x's non-zero rows number fewer than
// m/pushVolumeDiv; otherwise the pull fans out over the walk's row blocks.
func (w *Walk) MulT(x, y sparse.Vector) sparse.Vector {
	mulT(w, w.invdeg, x, y)
	return y
}

// MulT32 is MulT over float32 storage (rwr.Operator32). Halving the element
// size halves the random-access working set (x[u] and invdeg[u] per edge),
// which is where the hot path spends its time once the vectors outgrow L2.
// Sums accumulate in float32; the precision loss is covered by the explicit
// float32 tolerance the accuracy suite asserts on top of the Theorem-2
// bound.
func (w *Walk) MulT32(x, y sparse.Vector32) sparse.Vector32 {
	mulT(w, w.invdeg32, x, y)
	return y
}

// pushVolumeDiv sets the switch between the kernels: an application pushes
// while the out-edges of x's non-zero rows number fewer than
// m/pushVolumeDiv. The push kernel's cost grows with that volume (random
// writes); the pull fan-out's is a flat O(m) divided among the blocks'
// goroutines. BenchmarkMulTSwitch sweeps the density in float32 with 2
// blocks, on a 2-vCPU VM: on the 100k-node SBM push takes 0.16 / 0.21 /
// 0.56 / 1.3 / 3.5 ms at 0.1 / 1 / 6 / 25 / 100 % non-zero rows against
// 2.0–2.3 ms for the pull, and on the 2¹⁷-node R-MAT graph 0.21 / 0.27 /
// 0.67 / 1.8 / 4.2 ms against 3.3–3.7 ms. The two cross between m/4 and m
// there (an earlier box with a 1.2 ms pull crossed just above m/4), and
// every further core moves the crossing down, so m/4 stays. A query's hops
// on community graphs sit two orders of magnitude below it; its real
// iterates (the hops rows) cost 0.19 ms per hop on the SBM and 1.3 ms on
// R-MAT, where the 4th hop of five of the eight seeds pulls.
const pushVolumeDiv = 4

// mulT is the kernel switch behind MulT and MulT32: push under the budget,
// else pull over the row blocks, overwriting the push's partial product.
func mulT[T sparse.Float](w *Walk, invdeg []T, x, y sparse.Vec[T]) {
	if pushUnder(w, invdeg, x, y, w.g.NumEdges()/pushVolumeDiv) {
		w.pushes.Add(1)
		return
	}
	w.pulls.Add(1)
	forEachBlock(w, invdeg, x, y)
}

// inlineDiv sets how much of a budget pushUnder spends before it looks
// ahead: rows are pushed as the scan meets them while their cumulative
// out-volume stays under budget/inlineDiv, so a sparse x (a query's early
// hops) is scanned once. Past that, one tight loop measures the rest of x,
// and a dense x then wastes at most 1/inlineDiv of the budget on pushes the
// caller's pull overwrites. BenchmarkMulTSwitch reads the trade: an x under
// budget/inlineDiv costs its push and nothing more, while a dense one pays,
// on top of the pull, a scan of x and the m/64 edges pushed before the
// look-ahead.
const inlineDiv = 16

// pushUnder is the push kernel: every non-zero x[u] scatters its share
// along u's out-edges in ascending u, so a sparse x skips the rows it does
// not touch. invdeg is w's normalization in the element width of x and y.
// It computes y = Ãᵀ·x and reports true while the out-edges of x's non-zero
// rows number fewer than budget; otherwise it reports false and leaves y
// holding a partial product for the caller's pull to overwrite. It decides
// as it scans: rows are pushed until their out-volume reaches
// budget/inlineDiv, then volumeReaches measures the rest of x once, and the
// push either finishes from the first unpushed row or stops.
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
