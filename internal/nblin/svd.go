package nblin

import (
	"fmt"
	"math"
	"math/rand"

	"tpa/internal/sparse"
)

// Operator abstracts a linear operator so the truncated SVD can run on a
// sparse matrix (the cross-partition matrix in NB-LIN) without materializing
// it densely. Apply computes A·x, ApplyT computes Aᵀ·x.
type Operator interface {
	Dims() (rows, cols int)
	Apply(x sparse.Vector) sparse.Vector
	ApplyT(x sparse.Vector) sparse.Vector
}

// DenseOperator adapts a Dense matrix to the Operator interface.
type DenseOperator struct{ M *sparse.Dense }

// Dims returns the shape of the wrapped matrix.
func (d DenseOperator) Dims() (int, int) { return d.M.Rows, d.M.Cols }

// Apply computes M·x.
func (d DenseOperator) Apply(x sparse.Vector) sparse.Vector { return d.M.MulVec(x) }

// ApplyT computes Mᵀ·x.
func (d DenseOperator) ApplyT(x sparse.Vector) sparse.Vector { return d.M.MulVecT(x) }

// SVDResult holds a rank-k truncated singular value decomposition
// A ≈ U·diag(S)·Vᵀ with U (rows×k), V (cols×k) column-orthonormal.
type SVDResult struct {
	U *sparse.Dense // rows×k, left singular vectors as columns
	S sparse.Vector // k singular values, descending
	V *sparse.Dense // cols×k, right singular vectors as columns
}

// Rank returns the number of retained singular triplets.
func (r *SVDResult) Rank() int { return len(r.S) }

// ApproxMulVec computes (U·diag(S)·Vᵀ)·x, the action of the low-rank
// approximation on a vector.
func (r *SVDResult) ApproxMulVec(x sparse.Vector) sparse.Vector {
	t := r.V.MulVecT(x) // k
	for i := range t {
		t[i] *= r.S[i]
	}
	return r.U.MulVec(t)
}

// TruncatedSVD computes a rank-k SVD of op by subspace iteration on the
// right singular subspace: V ← orth((AᵀA)·V), repeated iters times with a
// random start, followed by a Rayleigh–Ritz step on the small k×k problem.
// It is the low-rank engine behind NB-LIN. rng provides deterministic
// initialization; iters ≈ 20–50 suffices for the decayed spectra of
// normalized adjacency matrices.
func TruncatedSVD(op Operator, k, iters int, rng *rand.Rand) (*SVDResult, error) {
	rows, cols := op.Dims()
	if k <= 0 {
		return nil, fmt.Errorf("nblin: TruncatedSVD rank %d", k)
	}
	if k > rows {
		k = rows
	}
	if k > cols {
		k = cols
	}
	if iters < 1 {
		iters = 1
	}
	// V: cols×k random orthonormal start.
	v := sparse.NewDense(cols, k)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	if err := orthonormalizeColumns(v); err != nil {
		return nil, err
	}
	col := sparse.NewVector(cols)
	for it := 0; it < iters; it++ {
		// W = AᵀA·V, column by column.
		w := sparse.NewDense(cols, k)
		for j := 0; j < k; j++ {
			for i := 0; i < cols; i++ {
				col[i] = v.At(i, j)
			}
			t := op.ApplyT(op.Apply(col))
			for i := 0; i < cols; i++ {
				w.Set(i, j, t[i])
			}
		}
		v = w
		if err := orthonormalizeColumns(v); err != nil {
			return nil, err
		}
	}
	// Rayleigh–Ritz: B = A·V (rows×k); SVD of B via eigen of BᵀB (k×k, Jacobi).
	b := sparse.NewDense(rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < cols; i++ {
			col[i] = v.At(i, j)
		}
		t := op.Apply(col)
		for i := 0; i < rows; i++ {
			b.Set(i, j, t[i])
		}
	}
	btb := sparse.NewDense(k, k)
	for p := 0; p < k; p++ {
		for q := p; q < k; q++ {
			var s float64
			for i := 0; i < rows; i++ {
				s += b.At(i, p) * b.At(i, q)
			}
			btb.Set(p, q, s)
			btb.Set(q, p, s)
		}
	}
	evals, evecs := JacobiEigen(btb, 200)
	// Sort descending.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if evals[order[j]] > evals[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	res := &SVDResult{U: sparse.NewDense(rows, k), S: sparse.NewVector(k), V: sparse.NewDense(cols, k)}
	for jj, idx := range order {
		lam := evals[idx]
		if lam < 0 {
			lam = 0
		}
		sv := math.Sqrt(lam)
		res.S[jj] = sv
		// V_out[:,jj] = V·evec  ; U_out[:,jj] = B·evec / sv
		for i := 0; i < cols; i++ {
			var s float64
			for p := 0; p < k; p++ {
				s += v.At(i, p) * evecs.At(p, idx)
			}
			res.V.Set(i, jj, s)
		}
		for i := 0; i < rows; i++ {
			var s float64
			for p := 0; p < k; p++ {
				s += b.At(i, p) * evecs.At(p, idx)
			}
			if sv > 1e-300 {
				res.U.Set(i, jj, s/sv)
			}
		}
	}
	return res, nil
}

// orthonormalizeColumns runs modified Gram–Schmidt on the columns of m in
// place. Columns that become numerically zero are re-randomized against a
// deterministic fallback basis to keep the subspace full-rank.
func orthonormalizeColumns(m *sparse.Dense) error {
	rows, cols := m.Rows, m.Cols
	for j := 0; j < cols; j++ {
		for p := 0; p < j; p++ {
			var dot float64
			for i := 0; i < rows; i++ {
				dot += m.At(i, p) * m.At(i, j)
			}
			for i := 0; i < rows; i++ {
				m.AddAt(i, j, -dot*m.At(i, p))
			}
		}
		var nrm float64
		for i := 0; i < rows; i++ {
			nrm += m.At(i, j) * m.At(i, j)
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-14 {
			// Deterministic fallback: unit vector not in the current span.
			for i := 0; i < rows; i++ {
				m.Set(i, j, 0)
			}
			m.Set(j%rows, j, 1)
			// One more orthogonalization pass for this column.
			j--
			continue
		}
		for i := 0; i < rows; i++ {
			m.Set(i, j, m.At(i, j)/nrm)
		}
	}
	return nil
}

// JacobiEigen computes the eigendecomposition of a small symmetric matrix a
// by cyclic Jacobi rotations: a = Q·diag(vals)·Qᵀ. It returns the eigenvalues
// and the matrix of eigenvectors (as columns). a is not modified. sweeps
// bounds the number of full sweeps; convergence is quadratic so 20–200 is
// plenty for the k≤64 matrices NB-LIN produces.
func JacobiEigen(a *sparse.Dense, sweeps int) (sparse.Vector, *sparse.Dense) {
	n := a.Rows
	w := a.Clone()
	q := sparse.Eye(n)
	for s := 0; s < sweeps; s++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n; p++ {
			for qq := p + 1; qq < n; qq++ {
				apq := w.At(p, qq)
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := w.At(p, p), w.At(qq, qq)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := t * c
				// Rotate rows/cols p,q of w.
				for i := 0; i < n; i++ {
					wip, wiq := w.At(i, p), w.At(i, qq)
					w.Set(i, p, c*wip-sn*wiq)
					w.Set(i, qq, sn*wip+c*wiq)
				}
				for i := 0; i < n; i++ {
					wpi, wqi := w.At(p, i), w.At(qq, i)
					w.Set(p, i, c*wpi-sn*wqi)
					w.Set(qq, i, sn*wpi+c*wqi)
				}
				for i := 0; i < n; i++ {
					qip, qiq := q.At(i, p), q.At(i, qq)
					q.Set(i, p, c*qip-sn*qiq)
					q.Set(i, qq, sn*qip+c*qiq)
				}
			}
		}
	}
	vals := sparse.NewVector(n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	return vals, q
}
