// Package core implements the paper's contribution: Cumulative Power
// Iteration (CPI, Algorithm 1) and the TPA two-phase approximation built on
// it (Algorithms 2 and 3), together with the theoretical error bounds of
// Lemmas 1-3 and Theorem 2 and helpers for choosing the S and T split
// points.
//
// It also provides the concurrent execution layer on top of the
// algorithms: PreprocessParallel shards the preprocessing matvec over row
// blocks, and QueryBatch/TopKBatch fan independent seed queries out over a
// worker pool with sync.Pool-backed scratch vectors (see batch.go).
package core

import (
	"context"
	"fmt"
	"math"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// CPIResult carries the outcome of a CPI run.
type CPIResult struct {
	// Scores is the accumulated score vector Σ x(i) for StartIter ≤ i ≤
	// the last executed iteration.
	Scores sparse.Vector
	// Iters is the index of the last executed iteration (propagation
	// steps performed).
	Iters int
	// Converged reports whether ‖x(i)‖₁ < ε stopped the loop before the
	// terminal iteration.
	Converged bool
}

// CPI runs Cumulative Power Iteration (Algorithm 1 of the paper) on the
// walk operator w: interim vectors x(0) = c·q, x(i) = (1-c)·Ãᵀ·x(i-1) are
// accumulated into the result for startIter ≤ i ≤ termIter.
//
// termIter < 0 means "∞": iterate until ‖x(i)‖₁ < ε. Exact RWR is
// CPI(w, seeds, cfg, 0, -1); PageRank is the same with all nodes seeded;
// the family part of TPA is CPI(w, {s}, cfg, 0, S-1); the stranger vector
// is CPI(w, all, cfg, T, -1).
func CPI(w rwr.Operator, seeds []int, cfg rwr.Config, startIter, termIter int) (*CPIResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if startIter < 0 {
		return nil, fmt.Errorf("core: negative start iteration %d", startIter)
	}
	if termIter >= 0 && termIter < startIter {
		return nil, fmt.Errorf("core: terminal iteration %d before start iteration %d", termIter, startIter)
	}
	n := w.N()
	q, err := rwr.SeedVector(n, seeds)
	if err != nil {
		return nil, err
	}
	r := sparse.NewVector(n)
	_, _, iters, converged := cpiLoop(nil, w.MulT, cfg, startIter, termIter, q.Scale(cfg.C), sparse.NewVector(n), r)
	return &CPIResult{Scores: r, Iters: iters, Converged: converged}, nil
}

// cpiLoop is Algorithm 1 with caller-provided storage, in either float
// width: the one propagation loop of this package. CPI, the online phase
// (with and without a deadline, see batch.go) and Reindex's correction are
// calls of it.
//
// x holds x(0), already scaled by c; it and buf (propagation scratch) are
// consumed as the ping-pong pair of the iteration x(i) = (1-c)·Ãᵀ·x(i-1),
// and come back as last (the final iterate) and spare (the other buffer).
// acc, when non-nil, has x(i) added for every executed startIter ≤ i; the
// caller zeroes or pre-loads it. The loop stops after iteration termIter
// (termIter < 0: the analytic bound, or cfg.MaxIter), as soon as
// ‖x(i)‖₁ < ε (converged), or — with a non-nil ctx — before the first step
// that would start after ctx expired. It allocates nothing.
//
// Each step is one application of mulT and one sweep over its output (see
// finishStep): the scale by 1-c, the add into acc and the L1 norm share
// that pass.
func cpiLoop[T sparse.Float](ctx context.Context, mulT func(x, y sparse.Vec[T]) sparse.Vec[T], cfg rwr.Config,
	startIter, termIter int, x, buf, acc sparse.Vec[T]) (last, spare sparse.Vec[T], iters int, converged bool) {
	if startIter == 0 && acc != nil {
		acc.Add(x)
	}
	limit := termIter
	if limit < 0 {
		limit = cfg.IterBound() + 8
		if cfg.MaxIter > 0 {
			limit = cfg.MaxIter
		}
	}
	decay := T(1 - cfg.C)
	for i := 1; i <= limit; i++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		mulT(x, buf)
		x, buf = buf, x
		iters = i
		into := acc
		if i < startIter {
			into = nil
		}
		if finishStep(x, decay, into) < cfg.Eps {
			return x, buf, iters, true
		}
	}
	return x, buf, iters, false
}

// finishStep completes a CPI step on the propagated vector x in one sweep:
// x[i] *= decay, then acc[i] += x[i] when acc is non-nil, and it returns
// ‖x‖₁. Per element these are the operations of x.Scale(decay), acc.Add(x)
// and x.L1() run one after the other, and the norm sums in the same order,
// so every bit matches the three passes. The conversion T(·) rounds the
// product before the add, which keeps a compiler from fusing the two.
func finishStep[T sparse.Float](x sparse.Vec[T], decay T, acc sparse.Vec[T]) float64 {
	var l1 float64
	if acc == nil {
		for i, v := range x {
			v = T(v * decay)
			x[i] = v
			l1 += math.Abs(float64(v))
		}
		return l1
	}
	acc = acc[:len(x)]
	for i, v := range x {
		v = T(v * decay)
		x[i] = v
		acc[i] += v
		l1 += math.Abs(float64(v))
	}
	return l1
}

// ExactRWR computes the full RWR vector by CPI run to convergence. It is
// the r_CPI reference of the paper.
func ExactRWR(w rwr.Operator, seed int, cfg rwr.Config) (sparse.Vector, error) {
	res, err := CPI(w, []int{seed}, cfg, 0, -1)
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// PageRankCPI computes the global PageRank vector by CPI run to
// convergence (all nodes seeded uniformly).
func PageRankCPI(w rwr.Operator, cfg rwr.Config) (sparse.Vector, error) {
	res, err := CPI(w, allSeeds(w.N()), cfg, 0, -1)
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// PartMasses returns the exact L1 masses of the family, neighbor and
// stranger parts for a column-stochastic operator (Lemma 2):
// ‖r_family‖₁ = 1-(1-c)^S, ‖r_neighbor‖₁ = (1-c)^S-(1-c)^T,
// ‖r_stranger‖₁ = (1-c)^T.
func PartMasses(c float64, s, t int) (family, neighbor, stranger float64) {
	ds := math.Pow(1-c, float64(s))
	dt := math.Pow(1-c, float64(t))
	return 1 - ds, ds - dt, dt
}

func allSeeds(n int) []int {
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	return seeds
}
