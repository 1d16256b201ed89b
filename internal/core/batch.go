package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// This file implements the concurrent query subsystem: a worker-pooled batch
// executor over the online phase, with sync.Pool-backed scratch vectors so
// the per-query allocation count in steady state is zero (QueryInto,
// TopKBatch) or exactly the returned result (Query, QueryBatch). The TPA
// state is read-only during queries, so any number of workers can share it.

// queryScratch holds the working vectors of one in-flight query, in the
// engine's serving width only: the seed / iterate vector and the
// propagation buffer (q, buf — or q32, buf32 plus the family accumulator
// fam32 on the float32 kernels), and a float64 vector out that holds the
// family part of a float64 top-k and a batch answer before its scatter into
// reported-id order.
// Scratches are pooled on the TPA (see TPA.scratch).
type queryScratch struct {
	out               sparse.Vector
	q, buf            sparse.Vector
	q32, buf32, fam32 sparse.Vector32
}

// getScratch returns a scratch sized for the current graph (and its serving
// precision), reusing a pooled one when available.
func (t *TPA) getScratch() *queryScratch {
	f32 := t.useF32()
	if sc, ok := t.scratch.Get().(*queryScratch); ok && len(sc.out) == t.walk.N() && (sc.q32 != nil) == f32 {
		return sc
	}
	n := t.walk.N()
	sc := &queryScratch{out: sparse.NewVector(n)}
	if f32 {
		sc.q32, sc.buf32, sc.fam32 = sparse.NewVector32(n), sparse.NewVector32(n), sparse.NewVector32(n)
	} else {
		sc.q, sc.buf = sparse.NewVector(n), sparse.NewVector(n)
	}
	return sc
}

func (t *TPA) putScratch(sc *queryScratch) { t.scratch.Put(sc) }

// checkSeeds validates every seed against the graph's node range.
func (t *TPA) checkSeeds(seeds []int) error {
	n := t.walk.N()
	for _, s := range seeds {
		if err := rwr.CheckSeed("core", s, n); err != nil {
			return err
		}
	}
	return nil
}

// queryInto runs the online phase (Algorithm 3) for the (already validated,
// non-empty) seed set on the kernels of the serving precision, writing the
// combined r_TPA into dst (length N) using sc for all intermediate state.
// It is the allocation-free core of every query entry point that returns
// scores. A nil ctx runs all S-1 propagation steps; otherwise ctx is
// checked between steps and an expired one leaves a reduced-S answer,
// described by the returned meta (see deadline.go).
func (t *TPA) queryInto(ctx context.Context, seeds []int, dst sparse.Vector, sc *queryScratch) QueryMeta {
	if t.useF32() {
		scale, meta := onlinePhase(ctx, t, t.walk32.MulT32, seeds, sc.q32, sc.buf32, sc.fam32)
		sparse.ScaledSumInto(sc.fam32, t.stranger32, scale, dst)
		return meta
	}
	// In float64 the family part accumulates straight into dst, and the
	// combine runs in place.
	scale, meta := onlinePhase(ctx, t, t.walk.MulT, seeds, sc.q, sc.buf, dst)
	sparse.ScaledSumInto(dst, t.stranger, scale, dst)
	return meta
}

// topKInto is queryInto for a top-k answer: it ranks family·scale +
// stranger as it computes each entry and never writes the combined vector.
// The k entries report ids[i] for internal node i (i itself when ids is
// nil) and break score ties by that id, so they are exactly the top k of
// queryInto's answer scattered into ids order.
func (t *TPA) topKInto(ctx context.Context, seeds []int, k int, ids []int32, sc *queryScratch) ([]sparse.Entry, QueryMeta) {
	if t.useF32() {
		scale, meta := onlinePhase(ctx, t, t.walk32.MulT32, seeds, sc.q32, sc.buf32, sc.fam32)
		return sparse.TopKScaledSum(sc.fam32, t.stranger32, scale, k, ids), meta
	}
	scale, meta := onlinePhase(ctx, t, t.walk.MulT, seeds, sc.q, sc.buf, sc.out)
	return sparse.TopKScaledSum(sc.out, t.stranger, scale, k, ids), meta
}

// onlinePhase computes the family head of Algorithm 3 in one float width:
// q and buf are iterate scratch and fam receives r_family. It returns the
// factor that turns fam into family + neighbor estimate (the answer is
// fam·scale + stranger, entry by entry) and the meta of the head it ran.
//
// x(0) and fam = x(0) are written on the seed entries only: the restart
// shares are summed in fam, scaled by c into q, and copied back, which are
// the per-entry operations of a dense seed vector's Scale and a zeroed
// accumulator's Add.
func onlinePhase[T sparse.Float](ctx context.Context, t *TPA, mulT func(x, y sparse.Vec[T]) sparse.Vec[T],
	seeds []int, q, buf, fam sparse.Vec[T]) (float64, QueryMeta) {
	q.Zero()
	fam.Zero()
	share := 1 / T(len(seeds))
	for _, s := range seeds {
		fam[s] += share
	}
	c := T(t.cfg.C)
	for _, s := range seeds {
		q[s] = fam[s] * c
	}
	for _, s := range seeds {
		fam[s] = q[s]
	}
	_, _, steps, converged := cpiLoop(ctx, mulT, t.cfg, 1, t.params.S-1, q, buf, fam)
	// Stopping after S' < S accumulated iterations is exactly a TPA
	// instance with split point S'; a head that converged early is exact
	// to ε, the same contract as the full S.
	effS := steps + 1
	if converged {
		effS = t.params.S
	}
	// fam holds the S'-step r_family; the neighbor estimate is it rescaled
	// by the Lemma-2 masses for S', as Algorithm 3 does for the full S.
	famMass, neighMass, _ := PartMasses(t.cfg.C, effS, t.params.T)
	scale := 1.0
	if famMass > 0 {
		scale = 1 + neighMass/famMass
	}
	return scale, QueryMeta{
		Partial:    effS < t.params.S,
		EffectiveS: effS,
		Steps:      effS - 1,
		Bound:      TheoremTwoBound(t.cfg.C, effS) + t.stale,
	}
}

// QueryInto is Query writing its answer into the caller-provided dst (length
// N), avoiding the result allocation too. It returns dst. It is safe for
// concurrent use with distinct dst vectors.
func (t *TPA) QueryInto(seed int, dst sparse.Vector) (sparse.Vector, error) {
	if err := rwr.CheckSeed("core", seed, t.walk.N()); err != nil {
		return nil, err
	}
	if len(dst) != t.walk.N() {
		return nil, fmt.Errorf("core: dst length %d, want %d", len(dst), t.walk.N())
	}
	sc := t.getScratch()
	t.queryInto(nil, []int{seed}, dst, sc)
	t.putScratch(sc)
	return dst, nil
}

// batchWorkers resolves a parallelism request against the job count.
func batchWorkers(parallelism, jobs int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > jobs {
		parallelism = jobs
	}
	return parallelism
}

// QueryBatch answers one single-seed query per entry of seeds, fanning the
// work out over a pool of parallelism worker goroutines (0 means
// GOMAXPROCS). Results[i] is the score vector for seeds[i], written in ids
// order: entry ids[j] holds internal node j's score (ids nil: internal
// order). Every seed is validated up front, so a bad seed fails the whole
// batch before any work runs. Workers draw scratch vectors from the shared
// pool; the only allocations are the returned vectors.
func (t *TPA) QueryBatch(seeds []int, parallelism int, ids []int32) ([][]float64, error) {
	if err := t.checkSeeds(seeds); err != nil {
		return nil, err
	}
	if err := t.checkIDs(ids); err != nil {
		return nil, err
	}
	n := t.walk.N()
	out := make([][]float64, len(seeds))
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		dst := sparse.NewVector(n)
		if ids == nil {
			t.queryInto(nil, seeds[i:i+1], dst, sc)
		} else {
			t.queryInto(nil, seeds[i:i+1], sc.out, sc)
			for j, v := range sc.out {
				dst[ids[j]] = v
			}
		}
		out[i] = dst
	})
	return out, nil
}

// TopKBatch answers a top-k query per seed with a worker pool, like
// QueryBatch, but ranks each answer in pooled scratch and returns only the
// k best entries per seed — the shape a batch serving endpoint wants. It is
// TopKBatchDeadline under a context that never expires, with internal ids.
func (t *TPA) TopKBatch(seeds []int, k, parallelism int) ([][]sparse.Entry, error) {
	tops, _, err := t.TopKBatchDeadline(context.Background(), seeds, k, parallelism, nil)
	return tops, err
}

// runBatch runs job(i, scratch) for every index of seeds on a pool of
// workers, each worker holding one scratch for its whole run.
func (t *TPA) runBatch(seeds []int, parallelism int, job func(i int, sc *queryScratch)) {
	workers := batchWorkers(parallelism, len(seeds))
	if workers <= 1 {
		sc := t.getScratch()
		for i := range seeds {
			job(i, sc)
		}
		t.putScratch(sc)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := t.getScratch()
			defer t.putScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seeds) {
					return
				}
				job(i, sc)
			}
		}()
	}
	wg.Wait()
}
