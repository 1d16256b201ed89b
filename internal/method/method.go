// Package method defines the one interface every RWR/PPR engine in this
// repository serves through, and a registry that makes them addressable by
// name. The seed ships nine engines beyond TPA itself — exact CPI, plain
// Monte Carlo, BEAR/BePI, FORA, HubPPR, FAST-PPR, BiPPR, BRPPR and NB-LIN —
// each grown with its own ad-hoc shape (struct-method vs free-function
// queries, per-package Options, inconsistent seed-range errors). This
// package normalizes all of them behind
//
//	Preprocess(w, cfg) → Query(seed) / TopK(seed, k) → Stats()
//
// so the experiment harness and the benchmark arena can drive any engine
// interchangeably: the paper's offline comparison of TPA against its
// competitors. Both drivers live in the reproduction module (repro/: its
// cmd/arena and internal/experiments). The HTTP server serves TPA only.
//
// Adapters are deliberately thin: they translate shapes and account
// preprocessing time/index size, but never reimplement an algorithm. Each
// adapter declares an L1 accuracy bound (Stats().Bound) that the shared
// conformance suite (conformance_test.go) checks against exact RWR on a
// small SBM graph; deterministic methods declare their analytic bound,
// sampling methods declare an empirical envelope at conformance scale.
//
// Method instances are NOT safe for concurrent queries unless documented
// otherwise: several engines own PRNGs or scratch state. Callers that share
// an instance across goroutines must serialize queries.
package method

import (
	"errors"
	"fmt"
	"time"

	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// ErrSeedOutOfRange is the one typed error every method returns for a query
// seed outside [0,n). It re-exports rwr.ErrSeedOutOfRange — the sentinel
// lives in internal/rwr so the engine packages can wrap it without an
// import cycle — so errors.Is works against either name.
var ErrSeedOutOfRange = rwr.ErrSeedOutOfRange

// ErrNotPreprocessed is returned by Query/TopK/Stats when Preprocess has
// not run (or failed) on the method instance.
var ErrNotPreprocessed = errors.New("method: not preprocessed")

// QueryMeta describes how one query was answered.
type QueryMeta struct {
	// Work is the method's dominant unit of online work spent on this
	// query: propagation steps (tpa, exact), random walks (mc, hubppr,
	// fastppr, bippr), expansion rounds (brppr). 0 when the method does
	// not track it.
	Work int
	// Substochastic marks score vectors that deliberately under-account
	// rank mass: BRPPR parks up to κ of rank on its frontier, so its
	// vectors sum to slightly less than 1 by design.
	Substochastic bool
}

// Stats describes a preprocessed method instance: what the preprocessing
// phase cost and what the answers are good for. Zero until Preprocess
// succeeds.
type Stats struct {
	// IndexBytes is the accounted size of the preprocessed data
	// (0 for methods with no index).
	IndexBytes int64
	// PreprocessTime is the wall-clock cost of the Preprocess call.
	PreprocessTime time.Duration
	// Bound is the declared L1 accuracy bound ‖r_exact − r_method‖₁ the
	// method's answers meet on this instance. Deterministic methods
	// declare their analytic bound (TPA: 2(1-c)^S from Theorem 2; exact
	// solvers: the convergence tolerance); sampling methods declare the
	// empirical envelope their default parameters meet at conformance
	// scale. The conformance suite holds every registered method to its
	// declared bound.
	Bound float64
}

// Method is one RWR/PPR engine behind a uniform lifecycle: construct via
// the registry (New), Preprocess once per graph, then Query/TopK per seed.
type Method interface {
	// Name returns the registry name ("tpa", "fora", ...).
	Name() string
	// Preprocess builds the method's per-graph state. cfg carries the
	// shared RWR problem parameters (restart probability c, tolerance ε);
	// method-specific knobs are fields on the concrete adapter, with
	// zero values deriving the package defaults from the graph.
	Preprocess(w *graph.Walk, cfg rwr.Config) error
	// Query returns the (approximate) RWR score vector for the seed.
	// Out-of-range seeds fail with an error wrapping ErrSeedOutOfRange.
	Query(seed int) (sparse.Vector, QueryMeta, error)
	// TopK returns the k highest-scoring nodes for the seed, best first.
	TopK(seed, k int) ([]sparse.Entry, QueryMeta, error)
	// Stats describes the preprocessed instance.
	Stats() Stats
}

// topKViaQuery derives TopK from a full Query — the default for adapters
// whose engine has no native top-k path.
func topKViaQuery(m Method, seed, k int) ([]sparse.Entry, QueryMeta, error) {
	r, meta, err := m.Query(seed)
	if err != nil {
		return nil, meta, err
	}
	return r.TopK(k), meta, nil
}

// notPrepared builds the error Query/TopK return before Preprocess.
func notPrepared(name string) error {
	return fmt.Errorf("method %s: %w (call Preprocess first)", name, ErrNotPreprocessed)
}
