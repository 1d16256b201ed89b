package graph

import (
	"fmt"

	"tpa/internal/sparse"
)

// CSRMatrix is an explicit n×n sparse matrix in compressed sparse row form
// with float64 values. The Walk operator never materializes Ãᵀ, but
// rwr.DenseExact factorizes it and the paper's fill-in experiments (Figs 3
// and 4, in repro/) take its powers (Ãᵀ)ⁱ, so this type materializes it
// from a Walk.
type CSRMatrix struct {
	N   int
	Ptr []int64
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSRMatrix) NNZ() int64 { return int64(len(m.Idx)) }

// NormalizedTranspose materializes Ãᵀ of the walk operator as a CSRMatrix
// (row i of the result holds the in-flows of node i).
func NormalizedTranspose(w *Walk) *CSRMatrix {
	g := w.Graph()
	n := g.NumNodes()
	m := &CSRMatrix{N: n, Ptr: make([]int64, n+1)}
	// Row v of Ãᵀ has one entry per in-neighbor u with value 1/outdeg(u),
	// plus the self-loop of a dangling v.
	for v := 0; v < n; v++ {
		cnt := int64(g.InDegree(v))
		if g.OutDegree(v) == 0 {
			cnt++
		}
		m.Ptr[v+1] = m.Ptr[v] + cnt
	}
	total := m.Ptr[n]
	m.Idx = make([]int32, total)
	m.Val = make([]float64, total)
	for v := 0; v < n; v++ {
		p := m.Ptr[v]
		for _, u := range g.InNeighbors(v) {
			m.Idx[p] = u
			m.Val[p] = w.InvOutDegree(int(u))
			p++
		}
		if g.OutDegree(v) == 0 {
			// A dangling v has no edge to itself, so its self-loop is a new
			// entry; insert it keeping the row sorted.
			q := p
			for q > m.Ptr[v] && m.Idx[q-1] > int32(v) {
				m.Idx[q] = m.Idx[q-1]
				m.Val[q] = m.Val[q-1]
				q--
			}
			m.Idx[q] = int32(v)
			m.Val[q] = 1
			p++
		}
		if p != m.Ptr[v+1] {
			panic(fmt.Sprintf("graph: CSR row %d fill mismatch", v))
		}
	}
	return m
}

// MulVec computes y = M·x.
func (m *CSRMatrix) MulVec(x sparse.Vector) sparse.Vector {
	if len(x) != m.N {
		panic(fmt.Sprintf("graph: CSR MulVec length mismatch %d vs %d", len(x), m.N))
	}
	y := sparse.NewVector(m.N)
	for i := 0; i < m.N; i++ {
		var s float64
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			s += m.Val[p] * x[m.Idx[p]]
		}
		y[i] = s
	}
	return y
}
