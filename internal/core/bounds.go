package core

import "math"

// This file collects the closed-form error bounds of the paper's analysis
// (§III): Lemma 1 for the stranger approximation, Lemma 3 for the neighbor
// approximation, and Theorem 2 for the combined method. All are worst-case
// bounds over arbitrary column-stochastic operators; Table III measures how
// far below them real block-structured graphs land.

// TheoremTwoBound is the total error bound of Theorem 2: 2(1-c)^S.
func TheoremTwoBound(c float64, s int) float64 {
	return 2 * math.Pow(1-c, float64(s))
}

// StalenessBudget is β = 2(1-c)^{S-1} − 2(1-c)^S = 2c(1-c)^{S-1}, the slack
// between Theorem 2 at S and at S-1 that a write's recompute may leave
// uncorrected in the stranger vector (see reindex.go).
func StalenessBudget(c float64, s int) float64 {
	return TheoremTwoBound(c, s-1) - TheoremTwoBound(c, s)
}

// TailBudget is τ = 10⁻³·β (β = StalenessBudget), the L1 error a build's
// recompute may leave in the stranger vector (see Preprocess): three orders
// below the slack writes spend, so a fresh index serves at Theorem 2.
func TailBudget(c float64, s int) float64 {
	return 1e-3 * StalenessBudget(c, s)
}

// NeighborBound is the neighbor-approximation bound of Lemma 3:
// 2(1-c)^S − 2(1-c)^T.
func NeighborBound(c float64, s, t int) float64 {
	return 2*math.Pow(1-c, float64(s)) - 2*math.Pow(1-c, float64(t))
}

// StrangerBound is the stranger-approximation bound of Lemma 1: 2(1-c)^T.
func StrangerBound(c float64, t int) float64 {
	return 2 * math.Pow(1-c, float64(t))
}
