// Package rwr provides exact random-walk-with-restart solvers used as
// ground truth by tests and experiments: plain power iteration on the RWR
// fixed-point equation and a dense direct solve of (I - (1-c)Ãᵀ)·r = c·q
// for small graphs. The paper uses BePI for ground truth; internal/bear
// implements BePI, and these solvers validate it in turn. It also defines
// Operator, the one interface every solver applies Ãᵀ through. Parallelism
// is the operator's business: graph.Walk fans its own dense applications
// over its row blocks, so nothing here wraps an operator to shard it.
package rwr

import (
	"errors"
	"fmt"

	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// ErrSeedOutOfRange is wrapped by every solver in this repository when a
// query references a node outside the graph's [0,n) id range. It lives here
// — the lowest layer every engine imports — so all nine method packages can
// share one typed error without an import cycle; internal/method re-exports
// it as method.ErrSeedOutOfRange. Test with errors.Is.
var ErrSeedOutOfRange = errors.New("seed node out of range")

// CheckSeed validates a seed id against the node count, returning an error
// wrapping ErrSeedOutOfRange with the caller's package prefix. It is the
// one range check behind every engine's query path, so the error shape (and
// errors.Is behavior) is identical across methods.
func CheckSeed(pkg string, seed, n int) error {
	if seed < 0 || seed >= n {
		return fmt.Errorf("%s: seed %d outside [0,%d): %w", pkg, seed, n, ErrSeedOutOfRange)
	}
	return nil
}

// Operator is the minimal interface RWR iterations need: the node count
// and the application of (the column-stochastic) Ãᵀ to a score vector.
// graph.Walk implements it over an in-memory (or memory-mapped) CSR,
// fanning its own dense applications over its row blocks; graph.DeltaWalk
// implements it over an uncompacted overlay.
type Operator interface {
	N() int
	MulT(x, y sparse.Vector) sparse.Vector
}

// Config bundles the RWR problem parameters shared by every solver in this
// repository: the restart probability c (paper default 0.15) and the
// convergence tolerance ε (paper default 1e-9).
type Config struct {
	C   float64 // restart probability, 0 < C < 1
	Eps float64 // convergence tolerance on the L1 residual
	// MaxIter caps power-style iterations as a safety net; 0 means the
	// analytic bound log_{1-c}(ε/c) + slack.
	MaxIter int
}

// DefaultConfig returns the paper's experiment settings: c = 0.15, ε = 1e-9.
func DefaultConfig() Config { return Config{C: 0.15, Eps: 1e-9} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.C <= 0 || c.C >= 1 {
		return fmt.Errorf("rwr: restart probability %v outside (0,1)", c.C)
	}
	if c.Eps <= 0 {
		return fmt.Errorf("rwr: tolerance %v must be positive", c.Eps)
	}
	if c.MaxIter < 0 {
		return fmt.Errorf("rwr: negative MaxIter %d", c.MaxIter)
	}
	return nil
}

// IterBound returns the number of CPI iterations needed to reach the
// tolerance: the smallest i with c(1-c)^i < ε (Lemma 4 of the paper).
func (c Config) IterBound() int {
	i := 0
	mass := c.C
	for mass >= c.Eps && i < 1<<20 {
		mass *= 1 - c.C
		i++
	}
	return i
}

func (c Config) maxIter() int {
	if c.MaxIter > 0 {
		return c.MaxIter
	}
	return c.IterBound() + 8
}

// SeedVector builds the seed distribution q for the given seeds:
// q[s] = 1/|seeds|. PageRank corresponds to seeding every node.
func SeedVector(n int, seeds []int) (sparse.Vector, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("rwr: empty seed set")
	}
	q := sparse.NewVector(n)
	w := 1 / float64(len(seeds))
	for _, s := range seeds {
		if err := CheckSeed("rwr", s, n); err != nil {
			return nil, err
		}
		q[s] += w
	}
	return q, nil
}

// PowerIteration solves r = (1-c)Ãᵀr + c·q by fixed-point iteration until
// the L1 change falls below ε. It returns the score vector and the number
// of iterations performed.
func PowerIteration(w *graph.Walk, seeds []int, cfg Config) (sparse.Vector, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	n := w.N()
	q, err := SeedVector(n, seeds)
	if err != nil {
		return nil, 0, err
	}
	r := q.Clone().Scale(cfg.C)
	buf := sparse.NewVector(n)
	next := sparse.NewVector(n)
	maxIter := cfg.maxIter()
	for it := 1; it <= maxIter; it++ {
		w.MulT(r, buf)
		for i := 0; i < n; i++ {
			next[i] = (1-cfg.C)*buf[i] + cfg.C*q[i]
		}
		diff := r.L1Dist(next)
		copy(r, next)
		if diff < cfg.Eps {
			return r, it, nil
		}
	}
	return r, maxIter, nil
}

// PageRank computes the global PageRank vector: RWR with every node seeded.
func PageRank(w *graph.Walk, cfg Config) (sparse.Vector, int, error) {
	seeds := make([]int, w.N())
	for i := range seeds {
		seeds[i] = i
	}
	return PowerIteration(w, seeds, cfg)
}

// DenseExact solves (I - (1-c)Ãᵀ)·r = c·q directly with LU factorization.
// It materializes the n×n system, so it is only for validation on small
// graphs (n ≲ 2000).
func DenseExact(w *graph.Walk, seeds []int, cfg Config) (sparse.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := w.N()
	if n > 4096 {
		return nil, fmt.Errorf("rwr: DenseExact limited to 4096 nodes, got %d", n)
	}
	q, err := SeedVector(n, seeds)
	if err != nil {
		return nil, err
	}
	m := graph.NormalizedTranspose(w)
	h := sparse.Eye(n)
	for i := 0; i < m.N; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			h.AddAt(i, int(m.Idx[p]), -(1-cfg.C)*m.Val[p])
		}
	}
	f, err := sparse.Factorize(h)
	if err != nil {
		return nil, fmt.Errorf("rwr: factorizing RWR system: %w", err)
	}
	return f.Solve(q.Clone().Scale(cfg.C))
}
