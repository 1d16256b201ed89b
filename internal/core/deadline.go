package core

import (
	"context"
	"fmt"

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

// QueryDeadline runs the online phase for a seed set, restarting
// uniformly over its entries (a seed listed twice gets twice the share):
// the multi-seed form of CPI that §II-C notes, and Query when the set is
// {seed}. The family part starts from the uniform seed vector; the stranger
// part never depended on the seed.
//
// If ctx expires mid-query the head computed so far is returned as a valid
// reduced-S approximation, flagged Partial with its own Theorem-2 bound. A
// context that is already expired still yields the cheapest useful answer
// (S' = 1: the scaled seed distribution plus the stranger tail, bound
// 2(1-c)).
func (t *TPA) QueryDeadline(ctx context.Context, seeds []int) (sparse.Vector, QueryMeta, error) {
	if err := t.checkSeedSet(seeds); err != nil {
		return nil, QueryMeta{}, err
	}
	dst := sparse.NewVector(t.walk.N())
	sc := t.getScratch()
	meta := t.queryInto(ctx, seeds, dst, sc)
	t.putScratch(sc)
	return dst, meta, nil
}

// TopKDeadline is the top k of QueryDeadline's answer, with the same
// partial-answer contract. The score vector is ranked as it is computed and
// never written. A non-nil ids (ids[internal] = reported id, e.g. an
// engine's shard permutation) reports each entry under its id and breaks
// score ties by it, so the answer is the top k of the score vector
// scattered into ids order.
func (t *TPA) TopKDeadline(ctx context.Context, seeds []int, k int, ids []int32) ([]sparse.Entry, QueryMeta, error) {
	if err := t.checkSeedSet(seeds); err != nil {
		return nil, QueryMeta{}, err
	}
	if err := t.checkIDs(ids); err != nil {
		return nil, QueryMeta{}, err
	}
	sc := t.getScratch()
	top, meta := t.topKInto(ctx, seeds, k, ids, sc)
	t.putScratch(sc)
	return top, meta, nil
}

// checkSeedSet validates a seed set: non-empty, every seed in range.
func (t *TPA) checkSeedSet(seeds []int) error {
	if len(seeds) == 0 {
		return fmt.Errorf("core: empty seed set")
	}
	return t.checkSeeds(seeds)
}

// TopKBatchDeadline is TopKBatch honoring ctx: every seed's query checks the
// shared context between propagation steps, so a batch straddling its
// deadline degrades per seed (early seeds complete, late seeds come back
// partial) instead of failing wholesale. Metas[i] describes seeds[i]; ids
// is TopKDeadline's.
func (t *TPA) TopKBatchDeadline(ctx context.Context, seeds []int, k, parallelism int, ids []int32) ([][]sparse.Entry, []QueryMeta, error) {
	if err := t.checkSeeds(seeds); err != nil {
		return nil, nil, err
	}
	if err := t.checkIDs(ids); err != nil {
		return nil, nil, err
	}
	out := make([][]sparse.Entry, len(seeds))
	metas := make([]QueryMeta, len(seeds))
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		out[i], metas[i] = t.topKInto(ctx, seeds[i:i+1], k, ids, sc)
	})
	return out, metas, nil
}

// checkIDs validates a top-k id map: nil, or one id per node.
func (t *TPA) checkIDs(ids []int32) error {
	if ids != nil && len(ids) != t.walk.N() {
		return fmt.Errorf("core: %d ids for %d nodes", len(ids), t.walk.N())
	}
	return nil
}
