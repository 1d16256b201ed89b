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
//	e = ρ + (1-c)·P'·e,   ρ = x'(T) + (1-c)·P'·s − s,
//
// which is itself a CPI over P' started from the residual ρ instead of the
// restart distribution. ρ needs only the NEW head iterate x'(T) (T dense
// propagation steps, the part of the CPI whose rows a delta actually
// dirties) and one application of P' to the stored s — no old iterates. Its
// L1 mass shrinks with the delta: only dirty rows contribute to
// (P'−P)s, so a small edge batch yields ‖ρ‖₁ ≪ c and the correction CPI
// converges in far fewer iterations than the ~log_{1-c}(ε/c) a full
// preprocessing needs. When ‖ρ‖₁ exceeds MaxResidual the saving is gone
// (and truncation drift from stacking many increments would start to
// matter), so Reindex falls back to a full PreprocessParallel.

// DefaultMaxResidual is the L1 residual above which Reindex abandons the
// incremental correction and reruns full preprocessing: at half the restart
// mass c the correction CPI would need nearly as many iterations as a
// rebuild, so larger residuals are not worth correcting.
const DefaultMaxResidual = 0.01

// ReindexStats reports what a Reindex call did.
type ReindexStats struct {
	// Residual is ‖ρ‖₁, the L1 mass the incremental correction had to
	// propagate. It is computed before a threshold fallback too; only the
	// forced-full path (maxResidual < 0) skips it and reports 0.
	Residual float64
	// HeadIters is the number of dense head propagation steps (always the
	// index's T on the incremental path).
	HeadIters int
	// CorrectionIters is the number of correction CPI iterations run, or
	// the full preprocessing iteration count after a fallback.
	CorrectionIters int
	// Full reports that the residual exceeded the threshold and the index
	// was rebuilt by full preprocessing instead.
	Full bool
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
		prec: t.prec, stranger32: t.stranger32, preIters: t.preIters}
	// Same stranger vector, new operator: the float32 copy is still valid
	// but the float32 kernel binding must be re-resolved against w.
	nt.applyPrecision()
	return nt, nil
}

// Reindex rebuilds t's preprocessed state for the mutated operator w and
// returns the new TPA bound to it (t itself is untouched and keeps
// serving). The incremental path recomputes the T-step head and then runs a
// correction CPI from the residual ρ; when ‖ρ‖₁ > maxResidual it falls
// back to PreprocessParallel. maxResidual 0 means DefaultMaxResidual;
// negative disables the incremental path entirely (every call is a full
// rebuild — the benchmarking baseline). workers shards the matvecs as in
// PreprocessParallel; the node count must be unchanged.
func Reindex(t *TPA, w rwr.Operator, workers int, maxResidual float64) (*TPA, ReindexStats, error) {
	var stats ReindexStats
	if w.N() != t.walk.N() {
		return nil, stats, fmt.Errorf("core: reindex operator has %d nodes but index has %d", w.N(), t.walk.N())
	}
	if maxResidual == 0 {
		maxResidual = DefaultMaxResidual
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
	rho := x
	var resid float64
	for i := range rho {
		rho[i] = rho[i] + (1-cfg.C)*buf[i] - t.stranger[i]
		resid += math.Abs(rho[i])
	}
	stats.Residual = resid
	if resid > maxResidual {
		stats.Full = true
		tp, err := PreprocessParallel(w, cfg, params, workers)
		if err != nil {
			return nil, stats, err
		}
		tp.prec = t.prec
		tp.applyPrecision()
		stats.CorrectionIters = tp.preIters
		return tp, stats, nil
	}

	// Correction CPI: s' = s + Σ_k ((1-c)·P')^k · ρ, truncated at ε like
	// every other CPI in this package. P' is (sub)stochastic, so the terms
	// shrink by at least (1-c) per step and the loop terminates.
	s2 := t.stranger.Clone().Add(rho)
	if resid >= cfg.Eps {
		_, _, stats.CorrectionIters, _ = cpiLoop(nil, op.MulT, cfg, 1, -1, rho, buf, s2)
	}
	nt := &TPA{walk: w, cfg: cfg, params: params, stranger: s2, prec: t.prec, preIters: t.preIters}
	// The stranger vector changed, so the float32 copy is re-derived from
	// the corrected master (no stranger32 carried over).
	nt.applyPrecision()
	return nt, stats, nil
}
