// Package core implements the paper's contribution: Cumulative Power
// Iteration (CPI, Algorithm 1) and the TPA two-phase approximation built on
// it (Algorithms 2 and 3), together with the theoretical error bounds of
// Lemmas 1-3 and Theorem 2 and helpers for choosing the S and T split
// points.
//
// It also provides the concurrent execution layer on top of the
// algorithms: Answer, the online phase's one entry point, fans the seeds of
// an Each request out over a worker pool with sync.Pool-backed scratch
// vectors (see batch.go).
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
	_, _, iters, converged, _ := cpiLoop(nil, w.MulT, cfg, startIter, termIter, 0, q.Scale(cfg.C), sparse.NewVector(n), r)
	return &CPIResult{Scores: r, Iters: iters, Converged: converged}, nil
}

// cpiLoop is Algorithm 1 with caller-provided storage, in either float
// width: the one propagation loop of this package. CPI, the online phase
// (with and without a deadline, see batch.go) and every stranger vector,
// built or written (see recompute), are calls of it.
//
// x holds x(0), already scaled by c; it and buf (propagation scratch) are
// consumed as the ping-pong pair of the iteration x(i) = (1-c)·Ãᵀ·x(i-1),
// and come back as last (the final iterate) and spare (the other buffer).
// acc, when non-nil, has x(i) added for every executed startIter ≤ i; the
// caller zeroes or pre-loads it. The loop stops after iteration termIter
// (termIter < 0: the analytic bound IterBound()+8), as soon as
// ‖x(i)‖₁ < ε (converged), or — with a non-nil ctx — before the first step
// that would start after ctx expired. It allocates nothing.
//
// budget > 0 (with a non-nil acc) makes the loop the one stopping rule of
// every stranger vector (see recompute): in place of the ε test, each
// accumulated step i tries two proven bounds on the rest of the sum,
// Σ_{j>i} x(j), and stops at the first that fits the budget, returning it
// as tail. First the plain bound (1-c)/c·‖x(i)‖₁ (see plainTail), which adds
// nothing. Then the extended one: with δ = ‖Ãᵀ·x(i-1) − x(i-1)‖₁, Ãᵀ an L1
// contraction gives ‖(Ãᵀ)ʲ·x(i) − x(i)‖₁ ≤ j·(1-c)·δ, so the rest of the sum
// is within (1-c)²/c²·δ of x(i)·(1-c)/c (as Σ_j j(1-c)ʲ = (1-c)/c²), which
// the loop then adds to acc. At the cap a budgeted loop returns its last
// plain bound; an unbudgeted loop returns tail 0.
//
// Each step is one application of mulT and one sweep over its output (see
// finishStep): the scale by 1-c, the add into acc, the L1 norm and δ share
// that pass.
func cpiLoop[T sparse.Float](ctx context.Context, mulT func(x, y sparse.Vec[T]) sparse.Vec[T], cfg rwr.Config,
	startIter, termIter int, budget float64, x, buf, acc sparse.Vec[T]) (last, spare sparse.Vec[T], iters int, converged bool, tail float64) {
	if startIter == 0 && acc != nil {
		acc.Add(x)
	}
	limit := termIter
	if limit < 0 {
		limit = cfg.IterBound() + 8
	}
	decay := T(1 - cfg.C)
	ratio := (1 - cfg.C) / cfg.C
	for i := 1; i <= limit; i++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		mulT(x, buf)
		into, prev := acc, x
		if i < startIter {
			into = nil
		}
		if into == nil || budget <= 0 {
			prev = nil
		}
		l1, delta := finishStep(buf, decay, into, prev)
		x, buf = buf, x
		iters = i
		if prev == nil {
			if l1 < cfg.Eps {
				return x, buf, iters, true, 0
			}
			continue
		}
		var fits bool
		if tail, fits = plainTail(cfg.C, l1, budget); fits {
			return x, buf, iters, true, tail
		}
		if bound := ratio * ratio * delta; bound <= budget {
			ext := T(ratio)
			for j, v := range x {
				acc[j] += T(v * ext)
			}
			return x, buf, iters, true, bound
		}
	}
	return x, buf, iters, false, tail
}

// plainTail returns the bound (1-c)/c·l1 on ‖Σ_{k≥1} ((1-c)·Ãᵀ)ᵏ·x‖₁ for
// ‖x‖₁ = l1, and whether it fits budget, tested as an ε test would be.
func plainTail(c, l1, budget float64) (bound float64, fits bool) {
	return (1 - c) / c * l1, l1 < c*budget/(1-c)
}

// finishStep completes a CPI step on the propagated vector x in one sweep:
// x[i] *= decay, then acc[i] += x[i] when acc is non-nil, and it returns
// ‖x‖₁. Per element these are the operations of x.Scale(decay), acc.Add(x)
// and x.L1() run one after the other, and the norm sums in the same order,
// so every bit matches the three passes. The conversion T(·) rounds the
// product before the add, which keeps a compiler from fusing the two.
//
// prev, when non-nil (and then acc is too), is the iterate x was propagated
// from: the sweep also returns delta = Σ|x[i] − prev[i]| taken before the
// scale, ‖Ãᵀ·prev − prev‖₁, summed in index order. x's entries do not
// depend on the operator's row blocks, so neither does delta.
func finishStep[T sparse.Float](x sparse.Vec[T], decay T, acc, prev sparse.Vec[T]) (l1, delta float64) {
	if acc == nil {
		for i, v := range x {
			v = T(v * decay)
			x[i] = v
			l1 += math.Abs(float64(v))
		}
		return l1, 0
	}
	acc = acc[:len(x)]
	if prev == nil {
		for i, v := range x {
			v = T(v * decay)
			x[i] = v
			acc[i] += v
			l1 += math.Abs(float64(v))
		}
		return l1, 0
	}
	prev = prev[:len(x)]
	for i, v := range x {
		delta += math.Abs(float64(v - prev[i]))
		v = T(v * decay)
		x[i] = v
		acc[i] += v
		l1 += math.Abs(float64(v))
	}
	return l1, delta
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
