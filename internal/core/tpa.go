package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Params holds TPA's two split points: S, the first iteration of the
// neighbor part, and T, the first iteration of the stranger part
// (0 < S < T). Table II of the paper lists the values tuned per dataset;
// SelectParams picks reasonable defaults for a new graph.
type Params struct {
	S int
	T int
}

// Validate checks 0 < S < T.
func (p Params) Validate() error {
	if p.S < 1 {
		return fmt.Errorf("core: S = %d must be at least 1", p.S)
	}
	if p.T <= p.S {
		return fmt.Errorf("core: T = %d must exceed S = %d", p.T, p.S)
	}
	return nil
}

// DefaultParams returns S=5, T=10, the most common setting in Table II.
func DefaultParams() Params { return Params{S: 5, T: 10} }

// TPA is the preprocessed state of the two-phase approximation for one
// graph: the walk operator, the configuration, and the precomputed stranger
// vector r̃_stranger = p_stranger (Algorithm 2). Build it once with
// Preprocess, then answer any number of seed queries with Query.
//
// A TPA value is safe for concurrent Query calls: queries only read the
// preprocessed state.
type TPA struct {
	walk   rwr.Operator
	cfg    rwr.Config
	params Params
	// stranger is the PageRank tail Σ_{i≥T} x'(i), shared by all seeds.
	// It is the float64 master copy regardless of serving precision:
	// reindexing always runs on it.
	stranger sparse.Vector
	// prec is the serving precision; stranger32/walk32 are the derived
	// float32 state, non-nil only under Float32 (see precision.go).
	prec       Precision
	stranger32 sparse.Vector32
	walk32     rwr.Operator32
	// preIters records how many CPI iterations preprocessing ran
	// (for reporting).
	preIters int
	// stale bounds ‖stranger − s*‖₁, s* the exact stranger vector of the
	// bound graph: 0 after preprocessing, what Reindex left uncorrected
	// after a write (see reindex.go).
	stale float64
	// tip = x(T−1) and the discounted head sum head are the head state of
	// the graph the last recomputing write ran on, and drift bounds how far
	// the written graphs since have moved a residual taken with that tip (see
	// reindex.go). Heap-only: nil after preprocessing or a load, so the first
	// write recomputes.
	tip, head sparse.Vector
	drift     float64
	// scratch pools per-query working vectors (see batch.go) so steady-state
	// queries allocate nothing beyond their result.
	scratch sync.Pool
}

// Preprocess runs TPA's preprocessing phase (Algorithm 2): a single
// PageRank-style CPI accumulating only iterations ≥ T. The result is the
// only per-graph state TPA stores — an O(n) vector, which is why Fig 1(a)
// shows TPA's index orders of magnitude below the competitors'.
func Preprocess(w rwr.Operator, cfg rwr.Config, params Params) (*TPA, error) {
	return PreprocessParallel(w, cfg, params, 1)
}

// PreprocessParallel is Preprocess with the CPI sparse-matvec sharded over
// row blocks across workers goroutines (0 means GOMAXPROCS) when the
// operator supports it (rwr.BlockOperator); otherwise it falls back to the
// serial matvec. Only preprocessing fans out: the returned TPA is bound to w
// itself, so the online phase is unaffected and per-query parallelism stays
// the caller's choice (see QueryBatch).
func PreprocessParallel(w rwr.Operator, cfg rwr.Config, params Params, workers int) (*TPA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	res, err := CPI(rwr.Sharded(w, workers), allSeeds(w.N()), cfg, params.T, -1)
	if err != nil {
		return nil, err
	}
	return &TPA{
		walk:     w,
		cfg:      cfg,
		params:   params,
		stranger: res.Scores,
		preIters: res.Iters,
	}, nil
}

// Walk returns the underlying walk operator.
func (t *TPA) Walk() rwr.Operator { return t.walk }

// Config returns the RWR configuration used at preprocessing time.
func (t *TPA) Config() rwr.Config { return t.cfg }

// Params returns the S/T split points.
func (t *TPA) Params() Params { return t.params }

// StrangerVector returns the precomputed r̃_stranger (aliases internal
// storage; callers must not modify it).
func (t *TPA) StrangerVector() sparse.Vector { return t.stranger }

// PreprocessIters returns the number of CPI iterations the preprocessing
// phase executed.
func (t *TPA) PreprocessIters() int { return t.preIters }

// IndexBytes returns the accounted size of the preprocessed data — the
// quantity compared in Fig 1(a) and what a query reads per node: one
// float64 per node, or one float32 under Float32 precision. (A Float32
// engine additionally keeps the float64 master in memory for reindexing;
// that copy is preprocessing state, not index.)
func (t *TPA) IndexBytes() int64 {
	if t.prec == Float32 {
		return int64(len(t.stranger)) * 4
	}
	return int64(len(t.stranger)) * 8
}

// Query runs TPA's online phase (Algorithm 3) for the given seed node:
// compute r_family with S-1 propagation steps of CPI, scale it by
// ‖r_neighbor‖₁/‖r_family‖₁ to estimate the neighbor part, and add the
// precomputed stranger vector. It is QueryDeadline for the seed set {seed}
// under a context that never expires.
func (t *TPA) Query(seed int) (sparse.Vector, error) {
	r, _, err := t.QueryDeadline(context.Background(), []int{seed})
	return r, err
}

// QueryParts is Query exposing the three components separately; the
// error-analysis experiments (Table III, Fig 9) need them individually.
// Family is the head the online phase accumulates, always in float64.
func (t *TPA) QueryParts(seed int) (*Parts, error) {
	n := t.walk.N()
	if err := rwr.CheckSeed("core", seed, n); err != nil {
		return nil, err
	}
	fam := sparse.NewVector(n)
	onlinePhase(nil, t, t.walk.MulT, []int{seed}, sparse.NewVector(n), sparse.NewVector(n), fam)
	// Neighbor scaling factor ((1-c)^S - (1-c)^T) / (1 - (1-c)^S), the
	// closed form of ‖r_neighbor‖₁/‖r_family‖₁ from Lemma 2.
	famMass, neighMass, _ := PartMasses(t.cfg.C, t.params.S, t.params.T)
	scale := 0.0
	if famMass > 0 {
		scale = neighMass / famMass
	}
	return &Parts{
		Family:   fam,
		Neighbor: fam.Clone().Scale(scale),
		Stranger: t.stranger,
	}, nil
}

// Parts carries the three additive components of a TPA answer.
type Parts struct {
	Family   sparse.Vector // exact: Σ_{i<S} x(i)
	Neighbor sparse.Vector // approximated by scaling Family
	Stranger sparse.Vector // approximated by the PageRank tail (shared)
}

// Combine sums the three parts into the final r_TPA.
func (p *Parts) Combine() sparse.Vector {
	r := p.Family.Clone()
	r.Add(p.Neighbor)
	r.Add(p.Stranger)
	return r
}

// ErrorBound returns the a-priori L1 error guarantee for this instance:
// ‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S (Theorem 2) plus StaleBound. After a Reindex
// the sum stays within 2(1-c)^{S-1}.
func (t *TPA) ErrorBound() float64 { return TheoremTwoBound(t.cfg.C, t.params.S) + t.stale }

// StaleBound returns the bound on the L1 distance between the served
// stranger vector and the exact one of the bound graph: 0 for a freshly
// preprocessed index, at most StalenessBudget after a Reindex.
func (t *TPA) StaleBound() float64 { return t.stale }

// SetStaleBound restores a persisted StaleBound on a loaded index. Like
// SetPrecision it must be called before the TPA is shared across
// goroutines.
func (t *TPA) SetStaleBound(b float64) error {
	if !(b >= 0) || math.IsInf(b, 0) {
		return fmt.Errorf("core: stale bound %g is not a finite non-negative number", b)
	}
	t.stale = b
	return nil
}
