package core

import (
	"fmt"
	"math"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Incremental reindexing: rebuild the preprocessed stranger vector after a
// graph mutation without re-running the full CPI from scratch.
//
// The stranger vector is the PageRank tail s = Σ_{i≥T} x(i) with
// x(i) = (1-c)·Ãᵀ·x(i-1) and x(0) the uniform restart. Splitting the sum
// at T gives the exact fixed-point identity
//
//	s = x(T) + (1-c)·Ãᵀ·s.
//
// For a mutated operator P' the new tail s' satisfies the same identity
// with x'(T) and P', so the correction e = s' − s obeys
//
//	e = ρ + A'·e,   ρ = x'(T) + A'·s − s,   A' = (1-c)·P',
//
// whose solution is e = Σ_{k≥0} A'^k·ρ: a CPI over P' started from the
// residual ρ instead of the restart distribution. ρ needs only the NEW head
// iterate x'(T) (T dense propagation steps) and one application of P' to the
// served s — no old iterates.
//
// The correction does not run to ε. TPA only promises 2(1-c)^S (Theorem 2),
// and a reduced-S answer is already served under 2(1-c)^{S-1} (deadline.go),
// so the slack between the two, β = 2c(1-c)^{S-1}, is spent on staleness:
// Reindex stops at the first s_k = s + Σ_{j≤k} A'^j·ρ whose remaining tail
// Σ_{j>k} A'^j·ρ provably has L1 norm within β. P' never grows an L1 norm, so
// that tail is at most (1-c)/c·‖A'^k·ρ‖₁; the bound is stored on the new TPA
// as its StaleBound and added to every error bound it reports, keeping a
// written index within 2(1-c)^{S-1} of exact RWR. ρ is always measured
// against the served vector, so the next reindex corrects leftover staleness
// instead of stacking it, and the stopping rule depends only on the operator
// and the served vector, so replaying the same writes reproduces the same
// index bit for bit.

// ReindexStats reports what a Reindex call did.
type ReindexStats struct {
	// Residual is ‖ρ‖₁, the L1 mass the incremental correction started from
	// (0 on a forced full rebuild, which never computes it).
	Residual float64
	// HeadIters is the number of dense head propagation steps (always the
	// index's T on the incremental path).
	HeadIters int
	// CorrectionIters counts the operator applications after the head: one
	// for P'·s in the residual, plus one per correction term beyond ρ itself.
	// After a forced full rebuild it is the preprocessing iteration count.
	CorrectionIters int
	// Full reports that the index was rebuilt by full preprocessing.
	Full bool
	// StaleBound is the new index's bound on ‖s − s'‖₁ (see TPA.StaleBound).
	StaleBound float64
}

// Iters returns the total propagation steps spent.
func (s ReindexStats) Iters() int { return s.HeadIters + s.CorrectionIters }

// WithOperator returns a copy of t bound to w, which must be a semantically
// identical operator over the same graph (e.g. the same Walk behind an
// instrumenting wrapper). The preprocessed state is shared; only the
// binding changes.
func (t *TPA) WithOperator(w rwr.Operator) (*TPA, error) {
	if w.N() != t.walk.N() {
		return nil, fmt.Errorf("core: operator has %d nodes but index has %d", w.N(), t.walk.N())
	}
	nt := &TPA{walk: w, cfg: t.cfg, params: t.params, stranger: t.stranger,
		prec: t.prec, stranger32: t.stranger32, preIters: t.preIters, stale: t.stale}
	// Same stranger vector, new operator: the float32 copy is still valid
	// but the float32 kernel binding must be re-resolved against w.
	nt.applyPrecision()
	return nt, nil
}

// Reindex rebuilds t's preprocessed state for the mutated operator w and
// returns the new TPA bound to it (t itself is untouched and keeps
// serving). It recomputes the T-step head, measures the residual ρ against
// t's stranger vector and corrects it until the staleness bound is within
// StalenessBudget. A negative maxResidual instead reruns PreprocessParallel
// on every call (the benchmarking baseline); any other value takes the
// incremental path. workers shards the matvecs as in PreprocessParallel; the
// node count must be unchanged.
func Reindex(t *TPA, w rwr.Operator, workers int, maxResidual float64) (*TPA, ReindexStats, error) {
	var stats ReindexStats
	if w.N() != t.walk.N() {
		return nil, stats, fmt.Errorf("core: reindex operator has %d nodes but index has %d", w.N(), t.walk.N())
	}
	if maxResidual < 0 {
		stats.Full = true
		tp, err := PreprocessParallel(w, t.cfg, t.params, workers)
		if err != nil {
			return nil, stats, err
		}
		tp.prec = t.prec
		tp.applyPrecision()
		stats.CorrectionIters = tp.preIters
		return tp, stats, nil
	}
	cfg, params := t.cfg, t.params
	n := w.N()
	op := rwr.Sharded(w, workers)

	// Head: x'(0) = c·q uniform, then T propagation steps to x'(T). These
	// are the CPI iterations the dirty rows of a delta actually change.
	// (Should the head fall below ε before T, x'(T) is below ε too and the
	// iterate it stopped at stands in for it, like every truncated CPI.)
	x := sparse.NewVector(n)
	x.Fill(cfg.C / float64(n))
	x, buf, headIters, _ := cpiLoop(nil, op.MulT, cfg, 0, params.T, x, sparse.NewVector(n), nil)
	stats.HeadIters = headIters

	// Residual ρ = x'(T) + (1-c)·P'·s − s, reusing buf for P'·s.
	op.MulT(t.stranger, buf)
	stats.CorrectionIters = 1
	rho := x
	var resid float64
	for i := range rho {
		rho[i] = rho[i] + (1-cfg.C)*buf[i] - t.stranger[i]
		resid += math.Abs(rho[i])
	}
	stats.Residual = resid

	// Correction: s' = s + ρ + A'ρ + … + A'^kρ for the smallest k whose
	// tail bound (1-c)/c·‖A'^kρ‖₁ is within β, i.e. ‖A'^kρ‖₁ < cβ/(1-c).
	// The loop never runs longer than the ε-truncated correction would.
	budget := cfg
	budget.Eps = cfg.C * StalenessBudget(cfg.C, params.S) / (1 - cfg.C)
	if budget.MaxIter == 0 {
		budget.MaxIter = cfg.IterBound() + 8
	}
	s2 := t.stranger.Clone().Add(rho)
	last := rho
	if resid >= budget.Eps {
		var k int
		last, _, k, _ = cpiLoop(nil, op.MulT, budget, 1, -1, rho, buf, s2)
		stats.CorrectionIters += k
	}
	stats.StaleBound = (1 - cfg.C) / cfg.C * last.L1()
	nt := &TPA{walk: w, cfg: cfg, params: params, stranger: s2, prec: t.prec, preIters: t.preIters,
		stale: stats.StaleBound}
	// The stranger vector changed, so the float32 copy is re-derived from
	// the corrected master (no stranger32 carried over).
	nt.applyPrecision()
	return nt, stats, nil
}
