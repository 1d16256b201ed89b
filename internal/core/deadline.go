package core

// This file holds the contract of deadline-bounded ("anytime") answers. The
// CPI decomposition makes a partial answer principled: the online phase
// accumulates the family head one propagation step at a time, and stopping
// after S' < S steps is exactly a TPA instance with split point S' — still
// covered by Theorem 2, just with the looser bound 2(1-c)^S'. So when a
// request's context expires mid-computation we do not throw the work away
// or fail the request: we rescale the head computed so far with the Lemma-2
// masses for S', add the shared stranger vector, and report the bound the
// caller actually got (see Answer).

// QueryMeta describes how an answer completed.
type QueryMeta struct {
	// Partial reports that the context expired before all S-1 propagation
	// steps ran and the answer is a reduced-S TPA approximation.
	Partial bool
	// EffectiveS is the split point actually realized: S when the query
	// completed, the number of accumulated head iterations (≥ 1) when it
	// was cut short.
	EffectiveS int
	// Steps is the number of propagation steps executed (EffectiveS - 1).
	Steps int
	// Bound is the a-priori L1 error bound for the answer as returned:
	// 2(1-c)^EffectiveS (Theorem 2) plus the index's StaleBound.
	Bound float64
}
