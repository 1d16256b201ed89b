package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// This file implements the online phase's one entry point, Answer, over a
// worker pool with sync.Pool-backed scratch vectors, so the per-query
// allocation count in steady state is zero (QueryInto) or exactly the
// returned result (a score vector, or a top-k's k entries). The TPA state
// is read-only during queries, so any number of workers can share it.

// Request is one call of TPA's online phase (Algorithm 3). The walk
// restarts uniformly over Seeds (a seed listed twice gets twice the share):
// the multi-seed form of CPI that §II-C notes, and a single query when the
// set is {seed}. The stranger part never depended on the seed.
type Request struct {
	// Seeds is the restart set; every seed must be in range, and the set
	// non-empty unless Each is set.
	Seeds []int
	// K selects the answer's form: 0 returns the full score vector (Scores),
	// K > 0 its top K entries (Top), ranked as they are computed without
	// writing the vector. A negative K ranks none.
	K int
	// Each answers every seed on its own, one answer per seed in Seeds
	// order, instead of the set as a whole.
	Each bool
	// Workers is the size of the goroutine pool an Each request fans out
	// over; ≤ 0 means GOMAXPROCS.
	Workers int
}

// Answer is one answer of a Request.
type Answer struct {
	// Scores is a K = 0 answer: the score vector, length N, summing to ≈ 1.
	Scores sparse.Vector
	// Top is a K > 0 answer: the k best entries, highest score first and
	// equal scores by ascending id.
	Top []sparse.Entry
	// Meta describes how the answer completed (see QueryMeta).
	Meta QueryMeta
}

// queryScratch holds the working vectors of one in-flight query, in the
// engine's serving width only: the seed / iterate vector and the
// propagation buffer (q, buf — or q32, buf32 plus the family accumulator
// fam32 on the float32 kernels), and a float64 vector out that holds the
// family part of a float64 top-k and a score vector before its scatter
// into reported-id order. A float32 scratch allocates out on its first
// scattered score vector only: a float32 top-k never touches it.
// Scratches are pooled on the TPA (see TPA.scratch).
type queryScratch struct {
	out               sparse.Vector
	q, buf            sparse.Vector
	q32, buf32, fam32 sparse.Vector32
}

// getScratch returns a scratch sized for the current graph (and its serving
// precision), reusing a pooled one when available.
func (t *TPA) getScratch() *queryScratch {
	f32, n := t.useF32(), t.walk.N()
	if sc, ok := t.scratch.Get().(*queryScratch); ok && (f32 && len(sc.q32) == n || !f32 && len(sc.q) == n) {
		return sc
	}
	if f32 {
		return &queryScratch{q32: sparse.NewVector32(n), buf32: sparse.NewVector32(n), fam32: sparse.NewVector32(n)}
	}
	return &queryScratch{out: sparse.NewVector(n), q: sparse.NewVector(n), buf: sparse.NewVector(n)}
}

func (t *TPA) putScratch(sc *queryScratch) { t.scratch.Put(sc) }

// Answer runs req and appends its answers to dst: one for the seed set, or
// with Each one per seed, fanned out over a pool of req.Workers goroutines
// that each draw one pooled scratch for their whole run. ids, when non-nil,
// is an id map (ids[internal] = reported id, e.g. an engine's shard
// permutation): a score vector is written in ids order, and a top-k reports
// each entry under its id and breaks score ties by it, so it is the top k
// of that scattered vector. A K = 0 answer is written into the Scores
// already held by the dst slot it fills, in dst's spare capacity, when that
// has length N, and into a new vector otherwise. The request is validated
// up front, so a bad seed fails it before any work runs.
//
// ctx is checked between propagation steps. If it expires mid-query, the
// head computed so far is answered as a valid reduced-S approximation,
// flagged Partial with its own Theorem-2 bound; the seeds of an Each request
// share ctx and degrade independently (early seeds complete, late ones come
// back Partial). An already-expired ctx still yields the cheapest useful
// answer: S' = 1, the scaled seed distribution plus the stranger tail,
// bound 2(1-c).
func (t *TPA) Answer(ctx context.Context, req Request, ids []int32, dst []Answer) ([]Answer, error) {
	n := t.walk.N()
	if len(req.Seeds) == 0 && !req.Each {
		return dst, fmt.Errorf("core: empty seed set")
	}
	for _, s := range req.Seeds {
		if err := rwr.CheckSeed("core", s, n); err != nil {
			return dst, err
		}
	}
	if ids != nil && len(ids) != n {
		return dst, fmt.Errorf("core: %d ids for %d nodes", len(ids), n)
	}
	spare := dst[len(dst):cap(dst)]
	if !req.Each {
		var scores sparse.Vector
		if len(spare) > 0 {
			scores = spare[0].Scores
		}
		sc := t.getScratch()
		a := t.answer(ctx, req.Seeds, req.K, ids, scores, sc)
		t.putScratch(sc)
		return append(dst, a), nil
	}
	// The pool's goroutines work on copies of the seeds and of the answer
	// slots, so a caller's request and dst never escape to the heap: the
	// pinned forwards answer from stack-held ones.
	seeds, k := slices.Clone(req.Seeds), req.K
	out := make([]Answer, len(seeds))
	copy(out, spare)
	t.runBatch(len(seeds), req.Workers, func(i int, sc *queryScratch) {
		out[i] = t.answer(ctx, seeds[i:i+1], k, ids, out[i].Scores, sc)
	})
	if dst == nil {
		return out, nil
	}
	return append(dst, out...), nil
}

// answer computes one answer for a validated seed set on scratch sc: the
// top k when k ≠ 0, the score vector otherwise, written into scores when
// that has length N (see Answer for ids).
func (t *TPA) answer(ctx context.Context, seeds []int, k int, ids []int32, scores sparse.Vector, sc *queryScratch) Answer {
	if k != 0 {
		top, meta := t.topKInto(ctx, seeds, k, ids, sc)
		return Answer{Top: top, Meta: meta}
	}
	if len(scores) != t.walk.N() {
		scores = sparse.NewVector(t.walk.N())
	}
	if ids == nil {
		return Answer{Scores: scores, Meta: t.queryInto(ctx, seeds, scores, sc)}
	}
	if len(sc.out) != len(scores) {
		sc.out = sparse.NewVector(len(scores))
	}
	meta := t.queryInto(ctx, seeds, sc.out, sc)
	for j, v := range sc.out {
		scores[ids[j]] = v
	}
	return Answer{Scores: scores, Meta: meta}
}

// queryInto runs the online phase (Algorithm 3) for the (already validated,
// non-empty) seed set on the kernels of the serving precision, writing the
// combined r_TPA into dst (length N) using sc for all intermediate state.
// It is the allocation-free core of every answer that returns scores. A
// nil ctx runs all S-1 propagation steps; otherwise ctx is checked between
// steps and an expired one leaves a reduced-S answer, described by the
// returned meta (see deadline.go).
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
	_, _, steps, converged, _ := cpiLoop(ctx, mulT, t.cfg, 1, t.params.S-1, 0, q, buf, fam)
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

// QueryInto is Query writing its answer into the caller-provided dst
// (length N), avoiding the result allocation too. It returns dst. It is
// safe for concurrent use with distinct dst vectors.
func (t *TPA) QueryInto(seed int, dst sparse.Vector) (sparse.Vector, error) {
	if len(dst) != t.walk.N() {
		return nil, fmt.Errorf("core: dst length %d, want %d", len(dst), t.walk.N())
	}
	buf := [1]Answer{{Scores: dst}}
	as, err := t.Answer(context.Background(), Request{Seeds: []int{seed}}, nil, buf[:0])
	if err != nil {
		return nil, err
	}
	return as[0].Scores, nil
}

// TopKBatch answers a top-k query per seed over a pool of parallelism
// workers (0 means GOMAXPROCS), returning the k best entries per seed in
// internal ids: the request {seeds, k, Each} under a context that never
// expires.
func (t *TPA) TopKBatch(seeds []int, k, parallelism int) ([][]sparse.Entry, error) {
	as, err := t.Answer(context.Background(), Request{Seeds: seeds, K: k, Each: true, Workers: parallelism}, nil, nil)
	if err != nil {
		return nil, err
	}
	tops := make([][]sparse.Entry, len(as))
	for i, a := range as {
		tops[i] = a.Top
	}
	return tops, nil
}

// runBatch runs job(i, scratch) for every i in [0, jobs) on a pool of
// parallelism workers (≤ 0 means GOMAXPROCS), each worker holding one
// scratch for its whole run.
func (t *TPA) runBatch(jobs, parallelism int, job func(i int, sc *queryScratch)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, jobs)
	if workers <= 1 {
		sc := t.getScratch()
		for i := range jobs {
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
				if i >= jobs {
					return
				}
				job(i, sc)
			}
		}()
	}
	wg.Wait()
}
