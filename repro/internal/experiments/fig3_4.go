package experiments

import (
	"fmt"
	"math"

	"tpa/internal/eval"
	"tpa/internal/graph"
)

// Fig3 reproduces the spy plots of Fig 3: the nonzero distribution of
// (Ãᵀ)ⁱ on the Slashdot analogue for i ∈ {1,3,5,7}, rendered as
// grid×grid block counts (one table per power). As i grows the grid fills
// in — the densification that drives the stranger approximation.
func Fig3(opt Options, grid int) ([]*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if grid < 1 {
		return nil, fmt.Errorf("experiments: grid %d must be positive", grid)
	}
	w, _, err := loadWalk("Slashdot")
	if err != nil {
		return nil, err
	}
	m := graph.NormalizedTranspose(w)
	var tables []*Table
	for _, i := range []int{1, 3, 5, 7} {
		p := Power(m, i, 0)
		counts := BlockCounts(p, grid)
		t := &Table{Title: fmt.Sprintf("Fig 3: nonzeros of (Ãᵀ)^%d on Slashdot (nnz=%d)", i, p.NNZ())}
		t.Header = make([]string, grid+1)
		t.Header[0] = "row\\col"
		for j := 0; j < grid; j++ {
			t.Header[j+1] = fmt.Sprintf("b%d", j)
		}
		for r := 0; r < grid; r++ {
			row := make([]string, grid+1)
			row[0] = fmt.Sprintf("b%d", r)
			for j := 0; j < grid; j++ {
				row[j+1] = fmt.Sprintf("%d", counts[r*grid+j])
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig4 reproduces Fig 4: for the Slashdot and Google analogues and
// i = 1..7, (a) the number of nonzeros of (Ãᵀ)ⁱ and (b)
// Cᵢ = (1/n)·Σ_{j≠s}‖c_s⁽ⁱ⁾ − c_j⁽ⁱ⁾‖₁ averaged over opt.Seeds random
// seeds s. The paper's observation — nnz grows while Cᵢ falls — is what
// makes the Lemma 1 bound loose in practice.
func Fig4(opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	names := opt.datasetNames([]string{"Slashdot", "Google"})
	t := &Table{Title: "Fig 4: nonzeros and C_i of (Ãᵀ)^i", Header: []string{"i"}}
	for _, n := range names {
		t.Header = append(t.Header, n+" nnz", n+" C_i")
	}
	type series struct {
		nnz []int64
		ci  []float64
	}
	var all []series
	for _, name := range names {
		w, d, err := loadWalk(name)
		if err != nil {
			return nil, err
		}
		m := graph.NormalizedTranspose(w)
		seeds := eval.RandomSeeds(w.N(), opt.Seeds, d.Seed+99)
		var s series
		p := m
		for i := 1; i <= 7; i++ {
			if i > 1 {
				p = SpGEMM(p, m, 0)
			}
			s.nnz = append(s.nnz, p.NNZ())
			var ciSum float64
			for _, seed := range seeds {
				ciSum += averageColumnDistance(p, seed)
			}
			s.ci = append(s.ci, ciSum/float64(len(seeds)))
		}
		all = append(all, s)
	}
	for i := 0; i < 7; i++ {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, s := range all {
			row = append(row, fmt.Sprintf("%d", s.nnz[i]), fmt.Sprintf("%.4f", s.ci[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// averageColumnDistance computes Cᵢ = (1/n)·Σ_{j≠s}‖c_s − c_j‖₁ for the
// explicit matrix p in O(nnz + n) time: per row r with x = p[r][s],
//
//	Σ_{j≠s}|x − p[r][j]| = Σ_{j∈nz(r), j≠s}|x − p[r][j]| + (zeros outside nz)·|x|.
func averageColumnDistance(p *graph.CSRMatrix, s int) float64 {
	n := p.N
	var total float64
	ss := int32(s)
	for r := 0; r < n; r++ {
		var x float64
		lo, hi := p.Ptr[r], p.Ptr[r+1]
		for q := lo; q < hi; q++ {
			if p.Idx[q] == ss {
				x = p.Val[q]
				break
			}
		}
		nnzRow := int(hi - lo)
		sInRow := x != 0
		var sum float64
		for q := lo; q < hi; q++ {
			if p.Idx[q] == ss {
				continue
			}
			sum += math.Abs(x - p.Val[q])
		}
		// Columns j with p[r][j] = 0, j ≠ s.
		zeros := n - nnzRow
		if !sInRow {
			zeros-- // exclude j = s itself
		}
		sum += float64(zeros) * math.Abs(x)
		total += sum
	}
	return total / float64(n)
}
