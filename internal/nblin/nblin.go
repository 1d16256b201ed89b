// Package nblin implements NB-LIN (Tong et al., KAIS 2008 — [25] in the
// paper): approximate RWR via a partition + low-rank decomposition of the
// normalized adjacency matrix and the Sherman–Morrison–Woodbury identity.
//
// The operator is split as Ãᵀ = A1 + A2 where A1 keeps intra-partition
// edges (block diagonal after permuting by partition — computed here with
// label propagation standing in for METIS) and A2 the cross-partition
// edges. With Q = I − (1-c)A1 and the rank-k SVD A2 ≈ U·Ŝ·Vᵀ:
//
//	H⁻¹ = (Q − U·C·Vᵀ)⁻¹ = Q⁻¹ + Q⁻¹·U·(C⁻¹ − Vᵀ·Q⁻¹·U)⁻¹·Vᵀ·Q⁻¹
//
// with C = (1-c)·Ŝ, and r = c·H⁻¹·q. Everything right of Q⁻¹ is
// precomputed; the online phase is a block solve plus small dense algebra.
// The dense n×k factors are the memory hog that makes NB-LIN run out of
// memory on the larger datasets in Figs 1 and 7, and the rank truncation
// is why its recall trails the other methods in Fig 7.
package nblin

import (
	"fmt"
	"math/rand"

	"tpa/internal/graph"
	"tpa/internal/reorder"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Options configure NB-LIN preprocessing.
type Options struct {
	// MaxPart caps partition sizes (dense per-partition inverses).
	MaxPart int
	// Rank is the target rank k of the cross-partition approximation.
	Rank int
	// SVDIters is the subspace-iteration count for the truncated SVD.
	SVDIters int
	// LPRounds is the label-propagation sweep count for partitioning.
	LPRounds int
	Seed     int64
}

// DefaultOptions returns reasonable settings for an n-node graph.
func DefaultOptions(n int) Options {
	rank := 16
	if n < 64 {
		rank = n / 4
		if rank < 1 {
			rank = 1
		}
	}
	return Options{MaxPart: 200, Rank: rank, SVDIters: 30, LPRounds: 10, Seed: 1}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.MaxPart < 1 {
		return fmt.Errorf("nblin: MaxPart %d must be positive", o.MaxPart)
	}
	if o.Rank < 1 {
		return fmt.Errorf("nblin: Rank %d must be positive", o.Rank)
	}
	if o.SVDIters < 1 || o.LPRounds < 1 {
		return fmt.Errorf("nblin: iteration counts must be positive (svd=%d lp=%d)", o.SVDIters, o.LPRounds)
	}
	return nil
}

// csrOperator exposes a permuted sparse matrix as an Operator for the
// truncated SVD.
type csrOperator struct {
	n   int
	ptr []int64
	idx []int32
	val []float64
}

func (m *csrOperator) Dims() (int, int) { return m.n, m.n }

func (m *csrOperator) Apply(x sparse.Vector) sparse.Vector {
	y := sparse.NewVector(m.n)
	for i := 0; i < m.n; i++ {
		var s float64
		for p := m.ptr[i]; p < m.ptr[i+1]; p++ {
			s += m.val[p] * x[m.idx[p]]
		}
		y[i] = s
	}
	return y
}

func (m *csrOperator) ApplyT(x sparse.Vector) sparse.Vector {
	y := sparse.NewVector(m.n)
	for i := 0; i < m.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := m.ptr[i]; p < m.ptr[i+1]; p++ {
			y[m.idx[p]] += m.val[p] * xi
		}
	}
	return y
}

// NBLin is a preprocessed NB-LIN instance.
type NBLin struct {
	walk *graph.Walk
	cfg  rwr.Config
	opts Options

	perm []int // old → new (partition order)
	inv  []int // new → old

	parts []partRange
	invQ  []*sparse.Dense // per-partition inverses of Q = I − (1-c)A1
	u     *sparse.Dense   // n×k left factor of (1-c)-scaled... (raw U)
	v     *sparse.Dense   // n×k right factor
	qinvU *sparse.Dense   // Q⁻¹·U, n×k
	luM   *sparse.LU      // LU of M = C⁻¹ − Vᵀ·Q⁻¹·U, k×k
	rank  int             // effective rank (zero singular values trimmed)
}

type partRange struct{ lo, hi int }

// Preprocess builds the NB-LIN index.
func Preprocess(w *graph.Walk, cfg rwr.Config, opts Options) (*NBLin, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	g := w.Graph()
	n := g.NumNodes()
	part, err := reorder.LabelPropagation(g, opts.MaxPart, opts.LPRounds)
	if err != nil {
		return nil, err
	}
	nb := &NBLin{walk: w, cfg: cfg, opts: opts, perm: make([]int, n), inv: make([]int, 0, n)}
	for id := 0; id < part.NumParts(); id++ {
		lo := len(nb.inv)
		nb.inv = append(nb.inv, part.Nodes(id)...)
		nb.parts = append(nb.parts, partRange{lo: lo, hi: len(nb.inv)})
	}
	for newIdx, old := range nb.inv {
		nb.perm[old] = newIdx
	}
	// Split the permuted Ãᵀ into intra-partition Q blocks and the
	// cross-partition remainder A2.
	m := graph.NormalizedTranspose(w)
	partOf := make([]int, n)
	for pid, pr := range nb.parts {
		for i := pr.lo; i < pr.hi; i++ {
			partOf[i] = pid
		}
	}
	qBlocks := make([]*sparse.Dense, len(nb.parts))
	for pid, pr := range nb.parts {
		qBlocks[pid] = sparse.Eye(pr.hi - pr.lo)
	}
	a2 := &csrOperator{n: n, ptr: make([]int64, n+1)}
	type entry struct {
		col int32
		val float64
	}
	cross := make([][]entry, n)
	oneMC := 1 - cfg.C
	for oldRow := 0; oldRow < n; oldRow++ {
		i := nb.perm[oldRow]
		for p := m.Ptr[oldRow]; p < m.Ptr[oldRow+1]; p++ {
			j := nb.perm[m.Idx[p]]
			if partOf[i] == partOf[j] {
				pr := nb.parts[partOf[i]]
				qBlocks[partOf[i]].AddAt(i-pr.lo, j-pr.lo, -oneMC*m.Val[p])
			} else {
				cross[i] = append(cross[i], entry{col: int32(j), val: m.Val[p]})
			}
		}
	}
	for i := 0; i < n; i++ {
		a2.ptr[i+1] = a2.ptr[i] + int64(len(cross[i]))
	}
	a2.idx = make([]int32, a2.ptr[n])
	a2.val = make([]float64, a2.ptr[n])
	for i := 0; i < n; i++ {
		base := a2.ptr[i]
		for k, e := range cross[i] {
			a2.idx[base+int64(k)] = e.col
			a2.val[base+int64(k)] = e.val
		}
	}
	// Invert the Q blocks.
	nb.invQ = make([]*sparse.Dense, len(nb.parts))
	for pid, blk := range qBlocks {
		inv, err := sparse.Invert(blk)
		if err != nil {
			return nil, fmt.Errorf("nblin: inverting partition %d: %w", pid, err)
		}
		nb.invQ[pid] = inv
	}
	// Rank-k SVD of A2.
	rank := opts.Rank
	if rank > n {
		rank = n
	}
	var svd *SVDResult
	if a2.ptr[n] == 0 {
		// No cross edges at all: the Woodbury correction vanishes.
		nb.rank = 0
		return nb, nil
	}
	svd, err = TruncatedSVD(a2, rank, opts.SVDIters, rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return nil, err
	}
	// Trim zero singular values (C must be invertible).
	eff := 0
	for _, s := range svd.S {
		if s > 1e-12 {
			eff++
		}
	}
	if eff == 0 {
		nb.rank = 0
		return nb, nil
	}
	nb.rank = eff
	nb.u = sparse.NewDense(n, eff)
	nb.v = sparse.NewDense(n, eff)
	for i := 0; i < n; i++ {
		for j := 0; j < eff; j++ {
			nb.u.Set(i, j, svd.U.At(i, j))
			nb.v.Set(i, j, svd.V.At(i, j))
		}
	}
	// Q⁻¹·U column by column via the block inverses.
	nb.qinvU = sparse.NewDense(n, eff)
	col := sparse.NewVector(n)
	for j := 0; j < eff; j++ {
		for i := 0; i < n; i++ {
			col[i] = nb.u.At(i, j)
		}
		sol := nb.applyInvQ(col)
		for i := 0; i < n; i++ {
			nb.qinvU.Set(i, j, sol[i])
		}
	}
	// M = C⁻¹ − Vᵀ·Q⁻¹·U with C = (1-c)·diag(S).
	mm := sparse.NewDense(eff, eff)
	for i := 0; i < eff; i++ {
		mm.Set(i, i, 1/(oneMC*svd.S[i]))
	}
	vtqu := nb.v.T().Mul(nb.qinvU)
	mm.Sub(vtqu)
	lu, err := sparse.Factorize(mm)
	if err != nil {
		return nil, fmt.Errorf("nblin: factorizing Woodbury core: %w", err)
	}
	nb.luM = lu
	return nb, nil
}

// applyInvQ computes Q⁻¹·x block by block in permuted space.
func (nb *NBLin) applyInvQ(x sparse.Vector) sparse.Vector {
	y := sparse.NewVector(len(x))
	for pid, pr := range nb.parts {
		inv := nb.invQ[pid]
		sz := pr.hi - pr.lo
		for i := 0; i < sz; i++ {
			row := inv.Row(i)
			var s float64
			for j := 0; j < sz; j++ {
				s += row[j] * x[pr.lo+j]
			}
			y[pr.lo+i] = s
		}
	}
	return y
}

// Rank returns the effective rank of the cross-partition approximation.
func (nb *NBLin) Rank() int { return nb.rank }

// IndexBytes returns the accounted size of the preprocessed data: the
// partition inverses plus the dense n×k factors — the quantity that blows
// up in Fig 1(a).
func (nb *NBLin) IndexBytes() int64 {
	var t int64
	for _, inv := range nb.invQ {
		t += int64(inv.Rows) * int64(inv.Cols) * 8
	}
	if nb.rank > 0 {
		n := int64(nb.walk.N())
		k := int64(nb.rank)
		t += 3 * n * k * 8 // U, V, Q⁻¹U
		t += k * k * 8     // LU(M)
	}
	t += int64(len(nb.perm)) * 8
	return t
}

// Query computes the approximate RWR vector for the seed.
func (nb *NBLin) Query(seed int) (sparse.Vector, error) {
	n := nb.walk.N()
	if seed < 0 || seed >= n {
		return nil, rwr.CheckSeed("nblin", seed, n)
	}
	q := sparse.NewVector(n)
	q[nb.perm[seed]] = 1
	t := nb.applyInvQ(q)
	r := t.Clone()
	if nb.rank > 0 {
		y := nb.v.MulVecT(t) // Vᵀ·t, length k
		z, err := nb.luM.Solve(y)
		if err != nil {
			return nil, fmt.Errorf("nblin: Woodbury solve: %w", err)
		}
		r.Add(nb.qinvU.MulVec(z))
	}
	r.Scale(nb.cfg.C)
	// Un-permute.
	out := sparse.NewVector(n)
	for i, old := range nb.inv {
		out[old] = r[i]
	}
	return out, nil
}
