package core

import (
	"fmt"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Incremental reindexing: rebuild the preprocessed stranger vector after a
// graph mutation without re-running the full CPI from scratch.
//
// The stranger vector is the PageRank tail s = Σ_{i≥T} x(i) with
// x(i) = A·x(i-1), A = (1-c)·Ãᵀ and x(0) = c/n uniform. Splitting the sum
// at T gives the exact fixed-point identity s = x(T) + A·s. For a mutated
// operator A' the new tail s' satisfies the same identity with x'(T), so the
// correction e = s' − s obeys
//
//	e = ρ + A'·e,   ρ = x'(T) + A'·s − s = A'·(x'(T−1) + s) − s,
//
// whose solution is e = Σ_{k≥0} A'^k·ρ: a CPI over A' started from the
// residual ρ. Fusing x'(T) = A'·x'(T−1) into the residual, a write costs T−1
// dense head steps to x'(T−1) (the tip) and one application for ρ.
//
// The correction does not run to ε. TPA only promises 2(1-c)^S (Theorem 2),
// and a reduced-S answer is already served under 2(1-c)^{S-1} (deadline.go),
// so the slack between the two, β = 2c(1-c)^{S-1}, is spent on staleness:
// the written vector s_k = s + Σ_{j≤k} A'^j·ρ stops at the first k whose tail
// Σ_{j>k} A'^j·ρ provably has L1 norm within β. A' shrinks L1 norms by 1-c,
// so that tail is at most (1-c)/c·‖A'^k·ρ‖₁; the bound is stored on the new
// TPA as its StaleBound and added to every error bound it reports, keeping a
// written index within 2(1-c)^{S-1} of exact RWR. ρ is always measured
// against the served vector, so the next write corrects leftover staleness
// instead of stacking it.
//
// Skipping the head. A written TPA keeps the tip and a head sum h of the
// graph its head was last computed on (the reference), plus drift, a bound
// on how far the residual taken with that tip can sit from the current
// graph's. A later write first tries ρ̃ = A'·(tip + s) − s with the stored
// tip: one application instead of T. Its error is A'·(tip − x'(T−1)), and
// telescoping the two head recurrences gives
//
//	tip − x'(T−1) = Σ_{j≤T−2} A'^{T−2−j}·(A_ref − A')·x_ref(j).
//
// (A_ref − A')·x only involves the rows u the writes since the reference
// changed, each by at most (1-c)·x[u]·δ_u with δ_u = ‖P'_u − P_u‖₁ ≤ 2 the
// L1 change of u's transition row (see DirtyRows), and A'^{T−2−j} shrinks
// the result by (1-c)^{T−2−j}. So with the discounted head sum
//
//	h = Σ_{j≤T−2} (1-c)^{T−2−j}·x_ref(j)
//
// ‖ρ̃ − ρ‖₁ ≤ (1-c)²·Σ_u δ_u·h[u]: one factor 1-c from the outer A', one
// from the row change. Each iterate x(j) has mass c(1-c)^j, so every term
// of h weighs c(1-c)^{T−2}, and h carries 0.37 of mass at the defaults where
// the plain Σ x(j) carries 0.77. Summing the bound over the writes since the
// reference gives drift (the triangle inequality covers a row changed
// twice). The skipped write serves s + ρ̃ with no correction step, off the
// exact s' by (I−A')⁻¹·(ρ − ρ̃) plus the tail Σ_{k≥1} A'^k·ρ̃;
// ‖(I−A')⁻¹‖₁ ≤ 1/c, so its StaleBound is drift/c + (1-c)/c·‖ρ̃‖₁. The skip
// is accepted only when that is within β; otherwise the write recomputes
// the head, resetting the reference and drift to 0. A refused skip spent one
// application, so no write runs more than T+1 before its correction steps.
//
// Every decision depends only on the operator, the served vector and the
// head state, so replaying the same writes from the same engine reproduces
// the same index bit for bit. Engines from Preprocess or a snapshot carry no
// head state: their first write recomputes.

// ReindexStats reports what a Reindex call did.
type ReindexStats struct {
	// Residual is ‖ρ‖₁, the L1 mass the incremental correction started from.
	Residual float64
	// HeadIters is the number of dense head propagation steps: T−1 when the
	// head was recomputed, 0 when the write skipped it.
	HeadIters int
	// ResidualIters counts the applications that measured ρ: 1, or 2 when a
	// head skip was tried and refused before the recompute.
	ResidualIters int
	// CorrectionIters counts the correction terms applied past ρ.
	CorrectionIters int
	// StaleBound is the new index's bound on ‖s − s'‖₁ (see TPA.StaleBound).
	StaleBound float64
}

// Iters returns the total propagation steps spent.
func (s ReindexStats) Iters() int { return s.HeadIters + s.ResidualIters + s.CorrectionIters }

// DirtyRow names a row a write changed and Shift = ‖P'_u − P_u‖₁, the L1
// change of its transition row.
type DirtyRow struct {
	Node  int
	Shift float64
}

// DirtyRows groups a write's effective added and removed edges, each sorted
// by source, into the rows they changed, pricing each row from its
// out-degree before (oldDeg) and after (newDeg) the write.
func DirtyRows(added, removed [][2]int, oldDeg, newDeg func(u int) int) []DirtyRow {
	var rows []DirtyRow
	i, j := 0, 0
	for i < len(added) || j < len(removed) {
		var u int
		if j == len(removed) || i < len(added) && added[i][0] < removed[j][0] {
			u = added[i][0]
		} else {
			u = removed[j][0]
		}
		for ; i < len(added) && added[i][0] == u; i++ {
		}
		r := j
		for ; j < len(removed) && removed[j][0] == u; j++ {
		}
		rows = append(rows, DirtyRow{Node: u, Shift: rowShift(oldDeg(u), newDeg(u), j-r)})
	}
	return rows
}

// rowShift returns ‖P'_u − P_u‖₁ for a row of out-degree oldDeg before a
// write and newDeg after it, which removed removed of its edges. When both
// degrees are positive the rows share k = oldDeg − removed targets and the
// norm is 2 − 2k/max(oldDeg, newDeg); a dangling side gives 2, the most any
// two distributions differ by. An edge both added and removed by the write
// counts as removed, which only raises the result.
func rowShift(oldDeg, newDeg, removed int) float64 {
	if oldDeg == 0 || newDeg == 0 {
		return 2
	}
	kept := max(oldDeg-removed, 0)
	return 2 - 2*float64(kept)/float64(max(oldDeg, newDeg))
}

// WithOperator returns a copy of t bound to w, which must be a semantically
// identical operator over the same graph (e.g. the same Walk behind an
// instrumenting wrapper). The preprocessed state is shared; only the
// binding changes.
func (t *TPA) WithOperator(w rwr.Operator) (*TPA, error) {
	if w.N() != t.walk.N() {
		return nil, fmt.Errorf("core: operator has %d nodes but index has %d", w.N(), t.walk.N())
	}
	nt := &TPA{walk: w, cfg: t.cfg, params: t.params, stranger: t.stranger,
		prec: t.prec, stranger32: t.stranger32, preIters: t.preIters, stale: t.stale,
		tip: t.tip, head: t.head, drift: t.drift}
	// Same stranger vector, new operator: the float32 copy is still valid
	// but the float32 kernel binding must be re-resolved against w.
	nt.applyPrecision()
	return nt, nil
}

// Reindex rebuilds t's preprocessed state for the mutated operator w and
// returns the new TPA bound to it (t itself is untouched and keeps
// serving). It recomputes the head, measures the residual ρ against t's
// stranger vector and corrects it until the staleness bound is within
// StalenessBudget. The node count must be unchanged. workers and
// maxResidual are unused, as in PreprocessParallel: they keep the signature
// the benchmark trace compiles against (ROADMAP item 2).
func Reindex(t *TPA, w rwr.Operator, workers int, maxResidual float64) (*TPA, ReindexStats, error) {
	if w.N() != t.walk.N() {
		return nil, ReindexStats{}, fmt.Errorf("core: reindex operator has %d nodes but index has %d", w.N(), t.walk.N())
	}
	tp, stats := recompute(t, w)
	return tp, stats, nil
}

// ReindexWrite is Reindex for a write that changed exactly the rows dirty of
// t's graph, w being the written graph's operator. It skips the head when
// t's head state and the bound allow it and recomputes it otherwise (see the
// comment at the top of this file).
func ReindexWrite(t *TPA, w rwr.Operator, dirty []DirtyRow) (*TPA, ReindexStats, error) {
	if w.N() != t.walk.N() {
		return nil, ReindexStats{}, fmt.Errorf("core: reindex operator has %d nodes but index has %d", w.N(), t.walk.N())
	}
	if t.tip == nil {
		tp, stats := recompute(t, w)
		return tp, stats, nil
	}
	c := t.cfg.C
	beta := StalenessBudget(c, t.params.S)
	var shift float64
	for _, r := range dirty {
		shift += r.Shift * t.head[r.Node]
	}
	drift := t.drift + (1-c)*(1-c)*shift
	if drift/c >= beta {
		// The head bound alone spends the budget: no attempt.
		tp, stats := recompute(t, w)
		return tp, stats, nil
	}
	s1, resid := t.residual(w, t.tip, sparse.NewVector(w.N()))
	if bound := drift/c + (1-c)/c*resid; bound < beta {
		nt := t.written(w, s1, bound)
		nt.tip, nt.head, nt.drift = t.tip, t.head, drift
		return nt, ReindexStats{Residual: resid, ResidualIters: 1, StaleBound: bound}, nil
	}
	tp, stats := recompute(t, w)
	stats.ResidualIters++
	return tp, stats, nil
}

// recompute is the incremental reindex with a fresh head on w: T−1 head
// steps, the residual, and the budgeted correction. The new TPA keeps the
// head state for the next write's skip attempt.
func recompute(t *TPA, w rwr.Operator) (*TPA, ReindexStats) {
	cfg, params := t.cfg, t.params
	n := w.N()
	var stats ReindexStats

	// Head: x(0) = c/n uniform and T−1 steps to the tip x(T−1), folding the
	// iterates before it into h = Σ_{j≤T−2} (1-c)^{T−2−j}·x(j) Horner-style.
	x, buf := sparse.NewVector(n), sparse.NewVector(n)
	x.Fill(cfg.C / float64(n))
	h := x.Clone()
	for j := 1; j < params.T; j++ {
		w.MulT(x, buf)
		x, buf = buf.Scale(1-cfg.C), x
		if j < params.T-1 {
			h.Scale(1 - cfg.C).Add(x)
		}
	}
	tip := x
	stats.HeadIters = params.T - 1

	s1, resid := t.residual(w, tip, buf)
	stats.Residual, stats.ResidualIters = resid, 1

	// Correction: s' = s + ρ + A'ρ + … + A'^kρ for the smallest k whose
	// tail bound (1-c)/c·‖A'^kρ‖₁ is within β, i.e. ‖A'^kρ‖₁ < cβ/(1-c).
	// The loop never runs longer than the ε-truncated correction would.
	budget := cfg
	budget.Eps = cfg.C * StalenessBudget(cfg.C, params.S) / (1 - cfg.C)
	if budget.MaxIter == 0 {
		budget.MaxIter = cfg.IterBound() + 8
	}
	last := resid
	if resid >= budget.Eps {
		rho := buf
		for i := range rho {
			rho[i] = s1[i] - t.stranger[i]
		}
		var end sparse.Vector
		end, _, stats.CorrectionIters, _ = cpiLoop(nil, w.MulT, budget, 1, -1, rho, sparse.NewVector(n), s1)
		last = end.L1()
	}
	stats.StaleBound = (1 - cfg.C) / cfg.C * last
	nt := t.written(w, s1, stats.StaleBound)
	nt.tip, nt.head = tip, h
	return nt, stats
}

// residual returns s1 = s + ρ = A'·(tip + s) for w's operator A', and
// ‖ρ‖₁. scratch receives tip + s and is free again on return.
func (t *TPA) residual(w rwr.Operator, tip, scratch sparse.Vector) (s1 sparse.Vector, resid float64) {
	s := t.stranger
	for i := range scratch {
		scratch[i] = tip[i] + s[i]
	}
	s1 = w.MulT(scratch, sparse.NewVector(len(s))).Scale(1 - t.cfg.C)
	return s1, s1.L1Dist(s)
}

// written returns the TPA a write leaves: t's configuration bound to w,
// serving stranger with the given stale bound.
func (t *TPA) written(w rwr.Operator, stranger sparse.Vector, stale float64) *TPA {
	nt := &TPA{walk: w, cfg: t.cfg, params: t.params, stranger: stranger, prec: t.prec,
		preIters: t.preIters, stale: stale}
	// The stranger vector changed, so the float32 copy is re-derived from
	// the corrected master (no stranger32 carried over).
	nt.applyPrecision()
	return nt
}
