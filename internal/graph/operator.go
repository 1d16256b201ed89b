package graph

import (
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
	g      *Graph
	policy DanglingPolicy
	// invdeg[u] = 1/outdeg(u), 0 for dangling nodes (policy handles them).
	invdeg []float64
	// invdeg32 mirrors invdeg in float32 for the reduced-precision kernels;
	// kept alongside so either precision can gather without a conversion
	// pass.
	invdeg32 []float32
	// dangling lists the nodes with no out-edges in ascending order, so
	// block-parallel application can compute the dangling mass cheaply.
	dangling []int32
}

// NewWalk wraps g with the given dangling policy.
func NewWalk(g *Graph, policy DanglingPolicy) *Walk {
	n := g.NumNodes()
	w := &Walk{g: g, policy: policy,
		invdeg: make([]float64, n), invdeg32: make([]float32, n)}
	for u := 0; u < n; u++ {
		if d := g.OutDegree(u); d > 0 {
			w.invdeg[u] = 1 / float64(d)
			w.invdeg32[u] = float32(w.invdeg[u])
		} else {
			w.dangling = append(w.dangling, int32(u))
		}
	}
	return w
}

// Graph returns the underlying graph.
func (w *Walk) Graph() *Graph { return w.g }

// Policy returns the dangling-node policy.
func (w *Walk) Policy() DanglingPolicy { return w.policy }

// N returns the number of nodes.
func (w *Walk) N() int { return w.g.NumNodes() }

// InvOutDegree returns 1/outdeg(u), or 0 for a dangling node.
func (w *Walk) InvOutDegree(u int) float64 { return w.invdeg[u] }

// MulT computes y = Ãᵀ·x into the provided buffer y (which is zeroed first)
// and returns y. len(y) must equal len(x) == N.
func (w *Walk) MulT(x, y sparse.Vector) sparse.Vector { return mulT(w, w.invdeg, x, y) }

// MulT32 is MulT over float32 storage (rwr.Operator32). Halving the element
// size halves the random-access working set (x[u] and invdeg[u] per edge),
// which is where the hot path spends its time once the vectors outgrow L2.
// Sums accumulate in float32; the precision loss is covered by the explicit
// float32 tolerance the accuracy suite asserts on top of the Theorem-2
// bound.
func (w *Walk) MulT32(x, y sparse.Vector32) sparse.Vector32 { return mulT(w, w.invdeg32, x, y) }

// mulT is the push kernel behind MulT and MulT32: every nonzero x[u]
// scatters its share along u's out-edges, so a sparse x (the first hops of
// a query) skips the rows it does not touch. invdeg is w's normalization in
// the element width of x and y.
func mulT[T sparse.Float](w *Walk, invdeg []T, x, y sparse.Vec[T]) sparse.Vec[T] {
	y.Zero()
	// The CSR arrays are hoisted out of w.g: with the extra generic
	// arguments live, reloading them per row cost ~5% on a dense x.
	outPtr, outIdx := w.g.outPtr, w.g.outIdx
	n := w.g.n
	var danglingMass T
	for u := 0; u < n; u++ {
		xu := x[u]
		if xu == 0 {
			continue
		}
		ns := outIdx[outPtr[u]:outPtr[u+1]]
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
		share := xu * invdeg[u]
		for _, v := range ns {
			y[v] += share
		}
	}
	if danglingMass != 0 {
		u := danglingMass / T(n)
		for i := range y {
			y[i] += u
		}
	}
	return y
}

// Mul computes y = Ã·x into the provided buffer y (zeroed first) and returns
// y. This is the reverse propagation used by backward push: entry u receives
// the average of x over u's out-neighbors.
func (w *Walk) Mul(x, y sparse.Vector) sparse.Vector {
	y.Zero()
	n := w.g.NumNodes()
	var uniform float64
	if w.policy == DanglingUniform {
		uniform = x.Sum() / float64(n)
	}
	for u := 0; u < n; u++ {
		ns := w.g.OutNeighbors(u)
		if len(ns) == 0 {
			switch w.policy {
			case DanglingSelfLoop:
				y[u] += x[u]
			case DanglingUniform:
				y[u] += uniform
			}
			continue
		}
		var s float64
		for _, v := range ns {
			s += x[v]
		}
		y[u] = s * w.invdeg[u]
	}
	return y
}

// Column materializes column s of Ãᵀ (equivalently row s of Ã scattered to
// destinations): the one-step distribution of a walk standing at s.
func (w *Walk) Column(s int) sparse.Vector {
	x := sparse.NewVector(w.N())
	x[s] = 1
	y := sparse.NewVector(w.N())
	return w.MulT(x, y)
}
