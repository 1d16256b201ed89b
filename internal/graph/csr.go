package graph

import (
	"fmt"
	"slices"

	"tpa/internal/sparse"
)

// CSRMatrix is an explicit n×n sparse matrix in compressed sparse row form
// with float64 values. The Walk operator never materializes Ãᵀ, but the
// fill-in experiments of the paper (Figs 3 and 4) need the actual powers
// (Ãᵀ)ⁱ, so this type provides construction from a Walk plus a sparse
// matrix-matrix product (SpGEMM).
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

// Mul computes the sparse product M·B with a classical Gustavson row-by-row
// SpGEMM. Entries with absolute value below dropTol are discarded, which
// keeps the powers (Ãᵀ)ⁱ tractable on the experiment graphs (0 keeps all).
func (m *CSRMatrix) Mul(b *CSRMatrix, dropTol float64) *CSRMatrix {
	if m.N != b.N {
		panic(fmt.Sprintf("graph: SpGEMM dimension mismatch %d vs %d", m.N, b.N))
	}
	n := m.N
	out := &CSRMatrix{N: n, Ptr: make([]int64, n+1)}
	acc := make([]float64, n)  // dense accumulator
	marker := make([]int32, n) // which row last touched acc[j]
	for i := range marker {
		marker[i] = -1
	}
	var idxBuf []int32
	var valBuf []float64
	cols := make([]int32, 0, 256)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			k := m.Idx[p]
			av := m.Val[p]
			for q := b.Ptr[k]; q < b.Ptr[k+1]; q++ {
				j := b.Idx[q]
				if marker[j] != int32(i) {
					marker[j] = int32(i)
					acc[j] = 0
					cols = append(cols, j)
				}
				acc[j] += av * b.Val[q]
			}
		}
		// Sort the touched columns for a canonical row.
		slices.Sort(cols)
		for _, j := range cols {
			v := acc[j]
			if v > dropTol || v < -dropTol {
				idxBuf = append(idxBuf, j)
				valBuf = append(valBuf, v)
			}
		}
		out.Ptr[i+1] = int64(len(idxBuf))
	}
	out.Idx = idxBuf
	out.Val = valBuf
	return out
}

// Power returns Mⁱ (i ≥ 1) by repeated SpGEMM with the given drop tolerance.
func (m *CSRMatrix) Power(i int, dropTol float64) *CSRMatrix {
	if i < 1 {
		panic(fmt.Sprintf("graph: Power exponent %d < 1", i))
	}
	res := m
	for k := 1; k < i; k++ {
		res = res.Mul(m, dropTol)
	}
	return res
}

// Column extracts column j of the matrix as a dense vector.
func (m *CSRMatrix) Column(j int) sparse.Vector {
	v := sparse.NewVector(m.N)
	jj := int32(j)
	for i := 0; i < m.N; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			if m.Idx[p] == jj {
				v[i] = m.Val[p]
				break
			}
			if m.Idx[p] > jj {
				break
			}
		}
	}
	return v
}

// BlockCounts partitions the matrix into a blocks×blocks grid and returns
// the nonzero count of each cell, row-major. This is the data behind the
// spy plots of Fig 3.
func (m *CSRMatrix) BlockCounts(blocks int) []int64 {
	counts := make([]int64, blocks*blocks)
	if m.N == 0 {
		return counts
	}
	scale := float64(blocks) / float64(m.N)
	for i := 0; i < m.N; i++ {
		bi := int(float64(i) * scale)
		if bi >= blocks {
			bi = blocks - 1
		}
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			bj := int(float64(m.Idx[p]) * scale)
			if bj >= blocks {
				bj = blocks - 1
			}
			counts[bi*blocks+bj]++
		}
	}
	return counts
}
