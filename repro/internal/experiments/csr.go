package experiments

import (
	"fmt"
	"slices"

	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// SpGEMM computes the sparse product M·B row by row (Gustavson's
// algorithm). Entries with absolute value below dropTol are discarded, which
// keeps the powers (Ãᵀ)ⁱ tractable on the experiment graphs (0 keeps all).
func SpGEMM(m, b *graph.CSRMatrix, dropTol float64) *graph.CSRMatrix {
	if m.N != b.N {
		panic(fmt.Sprintf("experiments: SpGEMM dimension mismatch %d vs %d", m.N, b.N))
	}
	n := m.N
	out := &graph.CSRMatrix{N: n, Ptr: make([]int64, n+1)}
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
func Power(m *graph.CSRMatrix, i int, dropTol float64) *graph.CSRMatrix {
	if i < 1 {
		panic(fmt.Sprintf("experiments: Power exponent %d < 1", i))
	}
	res := m
	for k := 1; k < i; k++ {
		res = SpGEMM(res, m, dropTol)
	}
	return res
}

// Column extracts column j of m as a dense vector.
func Column(m *graph.CSRMatrix, j int) sparse.Vector {
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

// BlockCounts partitions m into a blocks×blocks grid and returns
// the nonzero count of each cell, row-major. This is the data behind the
// spy plots of Fig 3.
func BlockCounts(m *graph.CSRMatrix, blocks int) []int64 {
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
