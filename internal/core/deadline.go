package core

import (
	"context"
	"fmt"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// This file implements deadline-bounded ("anytime") queries. The CPI
// decomposition makes a partial answer principled: the online phase
// accumulates the family head one propagation step at a time, and stopping
// after S' < S steps is exactly a TPA instance with split point S' — still
// covered by Theorem 2, just with the looser bound 2(1-c)^S'. So when a
// query's context expires mid-computation we do not throw the work away or
// fail the request: we rescale the head computed so far with the Lemma-2
// masses for S', add the shared stranger vector, and report the bound the
// caller actually got.

// QueryMeta describes how a deadline-aware query completed.
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

// QueryDeadline is Query honoring ctx: if the context expires mid-query the
// head computed so far is returned as a valid reduced-S approximation,
// flagged Partial with its own Theorem-2 bound. A context that is already
// expired still yields the cheapest useful answer (S' = 1: the scaled seed
// distribution plus the stranger tail, bound 2(1-c)).
func (t *TPA) QueryDeadline(ctx context.Context, seed int) (sparse.Vector, QueryMeta, error) {
	if err := rwr.CheckSeed("core", seed, t.walk.N()); err != nil {
		return nil, QueryMeta{}, err
	}
	dst := sparse.NewVector(t.walk.N())
	sc := t.getScratch()
	meta := t.queryInto(ctx, []int{seed}, dst, sc)
	t.putScratch(sc)
	return dst, meta, nil
}

// TopKDeadline is TopK honoring ctx, with the same partial-answer contract
// as QueryDeadline. The full score vector never leaves the scratch pool.
func (t *TPA) TopKDeadline(ctx context.Context, seed, k int) ([]sparse.Entry, QueryMeta, error) {
	if err := rwr.CheckSeed("core", seed, t.walk.N()); err != nil {
		return nil, QueryMeta{}, err
	}
	sc := t.getScratch()
	meta := t.queryInto(ctx, []int{seed}, sc.out, sc)
	top := sc.out.TopK(k)
	t.putScratch(sc)
	return top, meta, nil
}

// QuerySetDeadline is QuerySet honoring ctx (uniform restart over the seed
// set), with the partial-answer contract of QueryDeadline.
func (t *TPA) QuerySetDeadline(ctx context.Context, seeds []int) (sparse.Vector, QueryMeta, error) {
	if len(seeds) == 0 {
		return nil, QueryMeta{}, fmt.Errorf("core: empty seed set")
	}
	if err := t.checkSeeds(seeds); err != nil {
		return nil, QueryMeta{}, err
	}
	dst := sparse.NewVector(t.walk.N())
	sc := t.getScratch()
	meta := t.queryInto(ctx, seeds, dst, sc)
	t.putScratch(sc)
	return dst, meta, nil
}

// TopKBatchDeadline is TopKBatch honoring ctx: every seed's query checks the
// shared context between propagation steps, so a batch straddling its
// deadline degrades per seed (early seeds complete, late seeds come back
// partial) instead of failing wholesale. Metas[i] describes seeds[i].
func (t *TPA) TopKBatchDeadline(ctx context.Context, seeds []int, k, parallelism int) ([][]sparse.Entry, []QueryMeta, error) {
	if err := t.checkSeeds(seeds); err != nil {
		return nil, nil, err
	}
	out := make([][]sparse.Entry, len(seeds))
	metas := make([]QueryMeta, len(seeds))
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		metas[i] = t.queryInto(ctx, seeds[i:i+1], sc.out, sc)
		out[i] = sc.out.TopK(k)
	})
	return out, metas, nil
}
