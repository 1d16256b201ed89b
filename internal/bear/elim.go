// Package bear implements the block-elimination family of RWR methods:
// BEAR-APPROX (Shin et al., SIGMOD 2015 — [22] in the paper) and BePI
// (Jung et al., SIGMOD 2017 — [12]), the exact method the paper uses as
// ground truth and compares against in Appendix A.
//
// Both methods permute the linear system
//
//	H·r = c·q,   H = I − (1-c)Ãᵀ
//
// with a hub-and-spoke ordering (hubspoke.go) so that the spoke-spoke
// block H11 is block diagonal, then apply block elimination with the Schur
// complement S = H22 − H21·H11⁻¹·H12 over the hubs:
//
//	r2 = S⁻¹·(c·q2 − H21·H11⁻¹·c·q1)
//	r1 = H11⁻¹·(c·q1 − H12·r2)
//
// BEAR-APPROX precomputes explicit inverses of the H11 blocks and of S and
// sparsifies them with a drop tolerance — large, lossy, but fast to apply.
// BePI keeps exact LU factors and solves instead of multiplying — exact,
// with a smaller index, at a higher online cost. The contrast between the
// two (and against TPA's single vector) is exactly Figs 1 and 10.
package bear

import (
	"fmt"

	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// spRows is a minimal sparse row-major matrix for the off-diagonal blocks
// H12 (spokes×hubs) and H21 (hubs×spokes).
type spRows struct {
	idx [][]int32
	val [][]float64
}

func newSpRows(rows int) *spRows {
	return &spRows{idx: make([][]int32, rows), val: make([][]float64, rows)}
}

func (m *spRows) add(r int, c int32, v float64) {
	m.idx[r] = append(m.idx[r], c)
	m.val[r] = append(m.val[r], v)
}

// mulVec computes y = M·x into a fresh vector of length rows.
func (m *spRows) mulVec(x sparse.Vector, rows int) sparse.Vector {
	y := sparse.NewVector(rows)
	for r := 0; r < rows; r++ {
		var s float64
		ids := m.idx[r]
		vals := m.val[r]
		for k, c := range ids {
			s += vals[k] * x[c]
		}
		y[r] = s
	}
	return y
}

func (m *spRows) nnz() int64 {
	var t int64
	for _, r := range m.idx {
		t += int64(len(r))
	}
	return t
}

func (m *spRows) bytes() int64 { return m.nnz() * 12 }

// blockRange locates one spoke block inside the permuted index space.
type blockRange struct{ lo, hi int } // new indices [lo,hi)

// elimination holds the permuted block structure shared by BEAR-APPROX and
// BePI.
type elimination struct {
	walk *graph.Walk
	cfg  rwr.Config

	perm []int // old → new
	inv  []int // new → old
	n1   int   // spoke count
	n2   int   // hub count

	blocks []blockRange
	h11    []*sparse.Dense // per-block dense H11 (before inversion)
	h12    *spRows         // n1 rows
	h21    *spRows         // n2 rows
	h22    *sparse.Dense   // n2×n2
}

// buildElimination permutes H and extracts the blocks.
func buildElimination(w *graph.Walk, cfg rwr.Config, maxBlock int, hubFrac float64) (*elimination, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := w.Graph()
	hs, err := Decompose(g, maxBlock, hubFrac)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	e := &elimination{walk: w, cfg: cfg, perm: make([]int, n), inv: hs.Ordering()}
	for newIdx, old := range e.inv {
		e.perm[old] = newIdx
	}
	e.n1 = hs.SpokeCount()
	e.n2 = len(hs.Hubs)
	lo := 0
	for _, b := range hs.Blocks {
		e.blocks = append(e.blocks, blockRange{lo: lo, hi: lo + len(b)})
		lo += len(b)
	}
	// blockOf[newIdx] for spokes.
	blockOf := make([]int, e.n1)
	for bi, br := range e.blocks {
		for i := br.lo; i < br.hi; i++ {
			blockOf[i] = bi
		}
	}
	// Materialize Ãᵀ once and scatter into the blocks of H = I − (1-c)Ãᵀ.
	m := graph.NormalizedTranspose(w)
	e.h11 = make([]*sparse.Dense, len(e.blocks))
	for bi, br := range e.blocks {
		e.h11[bi] = sparse.Eye(br.hi - br.lo)
	}
	e.h12 = newSpRows(e.n1)
	e.h21 = newSpRows(e.n2)
	e.h22 = sparse.Eye(e.n2)
	oneMC := 1 - cfg.C
	for oldRow := 0; oldRow < n; oldRow++ {
		i := e.perm[oldRow]
		for p := m.Ptr[oldRow]; p < m.Ptr[oldRow+1]; p++ {
			j := e.perm[m.Idx[p]]
			v := -oneMC * m.Val[p]
			switch {
			case i < e.n1 && j < e.n1:
				bi := blockOf[i]
				bj := blockOf[j]
				if bi != bj {
					return nil, fmt.Errorf("bear: edge crosses spoke blocks %d and %d", bi, bj)
				}
				br := e.blocks[bi]
				e.h11[bi].AddAt(i-br.lo, j-br.lo, v)
			case i < e.n1 && j >= e.n1:
				e.h12.add(i, int32(j-e.n1), v)
			case i >= e.n1 && j < e.n1:
				e.h21.add(i-e.n1, int32(j), v)
			default:
				e.h22.AddAt(i-e.n1, j-e.n1, v)
			}
		}
	}
	return e, nil
}

// schur computes S = H22 − H21·H11⁻¹·H12 given a per-block solver for
// H11⁻¹ restricted to one spoke block (local coordinates). Each hub column
// of H12 touches only a few spoke blocks, so only those blocks are solved —
// the dominant cost saving of the hub-and-spoke structure.
func (e *elimination) schur(applyBlock func(bi int, sub sparse.Vector) sparse.Vector) *sparse.Dense {
	s := e.h22.Clone()
	// blockOf[i] for spoke row i.
	blockOf := make([]int32, e.n1)
	for bi, br := range e.blocks {
		for i := br.lo; i < br.hi; i++ {
			blockOf[i] = int32(bi)
		}
	}
	// Bucket H12 by column once: colRows[j] lists (row, value) pairs.
	type entry struct {
		row int32
		val float64
	}
	colRows := make([][]entry, e.n2)
	for r := 0; r < e.n1; r++ {
		ids := e.h12.idx[r]
		vals := e.h12.val[r]
		for k, c := range ids {
			colRows[c] = append(colRows[c], entry{row: int32(r), val: vals[k]})
		}
	}
	x := sparse.NewVector(e.n1)
	touched := make([]int32, 0, 64)
	seen := make([]bool, len(e.blocks))
	for j := 0; j < e.n2; j++ {
		// x = H11⁻¹·(column j of H12), solved block by block over the
		// blocks the column touches.
		touched = touched[:0]
		for _, en := range colRows[j] {
			bi := blockOf[en.row]
			if !seen[bi] {
				seen[bi] = true
				touched = append(touched, bi)
			}
		}
		for _, bi := range touched {
			br := e.blocks[bi]
			sub := sparse.NewVector(br.hi - br.lo)
			for _, en := range colRows[j] {
				if blockOf[en.row] == bi {
					sub[int(en.row)-br.lo] += en.val
				}
			}
			sol := applyBlock(int(bi), sub)
			copy(x[br.lo:br.hi], sol)
		}
		hx := e.h21.mulVec(x, e.n2)
		for i := 0; i < e.n2; i++ {
			s.AddAt(i, j, -hx[i])
		}
		// Reset x and seen for the next column.
		for _, bi := range touched {
			br := e.blocks[bi]
			for i := br.lo; i < br.hi; i++ {
				x[i] = 0
			}
			seen[bi] = false
		}
	}
	return s
}
