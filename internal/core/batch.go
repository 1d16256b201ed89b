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
// fam32 on the float32 kernels), and a float64 output vector for top-k
// paths that never hand a full score vector back to the caller. Scratches
// are pooled on the TPA (see TPA.scratch).
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
// It is the allocation-free core of every query entry point. A nil ctx runs
// all S-1 propagation steps; otherwise ctx is checked between steps and an
// expired one leaves a reduced-S answer, described by the returned meta
// (see deadline.go).
func (t *TPA) queryInto(ctx context.Context, seeds []int, dst sparse.Vector, sc *queryScratch) QueryMeta {
	if t.useF32() {
		return onlinePhase(ctx, t, t.walk32.MulT32, t.stranger32, seeds, sc.q32, sc.buf32, sc.fam32, dst)
	}
	// In float64 the family part accumulates straight into dst.
	return onlinePhase(ctx, t, t.walk.MulT, t.stranger, seeds, sc.q, sc.buf, dst, dst)
}

// onlinePhase is queryInto in one float width: q and buf are iterate
// scratch, fam receives the family head, and stranger is the served index
// in that width; the combined answer always lands in float64 dst.
func onlinePhase[T sparse.Float](ctx context.Context, t *TPA, mulT func(x, y sparse.Vec[T]) sparse.Vec[T],
	stranger sparse.Vec[T], seeds []int, q, buf, fam sparse.Vec[T], dst sparse.Vector) QueryMeta {
	q.Zero()
	share := 1 / T(len(seeds))
	for _, s := range seeds {
		q[s] += share
	}
	fam.Zero()
	_, _, steps, converged := cpiLoop(ctx, mulT, t.cfg, 0, t.params.S-1, q.Scale(T(t.cfg.C)), buf, fam)
	// Stopping after S' < S accumulated iterations is exactly a TPA
	// instance with split point S'; a head that converged early is exact
	// to ε, the same contract as the full S.
	effS := steps + 1
	if converged {
		effS = t.params.S
	}
	// fam holds the S'-step r_family; fold in the scaled neighbor estimate
	// (Lemma-2 masses for S') and the shared stranger vector in one pass,
	// as Algorithm 3 does for the full S.
	famMass, neighMass, _ := PartMasses(t.cfg.C, effS, t.params.T)
	scale := 1.0
	if famMass > 0 {
		scale = 1 + neighMass/famMass
	}
	for i, f := range fam {
		dst[i] = float64(f)*scale + float64(stranger[i])
	}
	return QueryMeta{
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
// GOMAXPROCS). Results[i] is the score vector for seeds[i]. Every seed is
// validated up front, so a bad seed fails the whole batch before any work
// runs. Workers draw scratch vectors from the shared pool; the only
// allocations are the returned vectors.
func (t *TPA) QueryBatch(seeds []int, parallelism int) ([]sparse.Vector, error) {
	if err := t.checkSeeds(seeds); err != nil {
		return nil, err
	}
	n := t.walk.N()
	out := make([]sparse.Vector, len(seeds))
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		dst := sparse.NewVector(n)
		t.queryInto(nil, seeds[i:i+1], dst, sc)
		out[i] = dst
	})
	return out, nil
}

// QueryBatchEach is the zero-copy form of QueryBatch: one single-seed query
// per entry of seeds on the same worker pool, but each answer is handed to
// emit as a pooled scratch vector instead of a fresh allocation. The vector
// is only valid for the duration of the emit call; emit runs once per index,
// possibly concurrently from different workers. Callers that post-process
// answers into their own storage (e.g. the external-id scatter of reordered
// engines) save one full-length vector allocation per query.
func (t *TPA) QueryBatchEach(seeds []int, parallelism int, emit func(i int, r sparse.Vector)) error {
	if err := t.checkSeeds(seeds); err != nil {
		return err
	}
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		t.queryInto(nil, seeds[i:i+1], sc.out, sc)
		emit(i, sc.out)
	})
	return nil
}

// TopKBatch answers a top-k query per seed with a worker pool, like
// QueryBatch, but keeps the full score vectors in pooled scratch and returns
// only the k best entries per seed — the shape a batch serving endpoint
// wants. It is TopKBatchDeadline under a context that never expires.
func (t *TPA) TopKBatch(seeds []int, k, parallelism int) ([][]sparse.Entry, error) {
	tops, _, err := t.TopKBatchDeadline(context.Background(), seeds, k, parallelism)
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
