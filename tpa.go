// Package tpa is the public API of this repository: a Go implementation of
// TPA (Two Phase Approximation), the fast, scalable and accurate
// approximate random-walk-with-restart method of Yoon, Jung and Kang
// (ICDE 2018), together with the substrates it is built on.
//
// The typical flow is:
//
//	g, _ := tpa.LoadGraph("edges.tsv")        // or tpa.NewGraphBuilder()
//	eng, _ := tpa.New(g, tpa.Defaults())      // preprocessing phase (once)
//	scores, _ := eng.Query(seed)              // online phase (per seed)
//	top, _ := eng.TopK(seed, 100)
//	tops, _ := eng.Answer(ctx, tpa.Request{   // a top 10 per seed,
//		Seeds: seeds, K: 10, Each: true})     // fanned out over the pool
//	eng2, _, _ := eng.ApplyEdges(adds, dels)  // evolve the graph in place
//
// Preprocessing runs a single PageRank-style cumulative power iteration and
// stores one float64 per node; queries run only S propagation steps from
// the seed, so they are orders of magnitude cheaper than exact solvers.
// The approximation obeys ‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S (Theorem 2 of the
// paper) and is far more accurate in practice on graphs with community
// structure.
//
// Every query is one Request answered by Engine.Answer: a seed set (a
// single seed is the set {seed}), the score vector or its top k, the whole
// set or each seed on its own, under a context whose expiry degrades the
// answer instead of failing it. Query, TopK and TopKBatch are its
// shorthands.
//
// For validation, Exact computes the true RWR vector by cumulative power
// iteration run to convergence.
package tpa

import (
	"context"
	"fmt"
	"io"

	"tpa/internal/binio"
	"tpa/internal/core"
	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/mmapio"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Graph is a directed graph in compressed sparse row form.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// Entry is a node/score pair returned by TopK.
type Entry = sparse.Entry

// NewGraphBuilder returns a builder that infers the node count from ids.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// LoadGraph reads a whitespace-separated edge list from path (".gz"
// supported).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// ReadGraph reads an edge list from r.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// SaveGraph writes g to path as an edge list (".gz" supported).
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// RandomCommunityGraph generates a synthetic graph with planted community
// structure and skewed degrees — the structure TPA is designed for. It is
// handy for experiments when no real dataset is at hand.
func RandomCommunityGraph(nodes int, edges int64, communities int, seed int64) *Graph {
	return gen.CommunityRMAT(nodes, edges, communities, 0.2, seed)
}

// RandomSBMGraph generates a stochastic-block-model graph with k equal
// communities and the given intra-community edge probability pin
// (e.g. 0.95 for very tight communities). avgOutDeg sets the expected
// out-degree.
func RandomSBMGraph(nodes, communities int, avgOutDeg, pin float64, seed int64) *Graph {
	return gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: communities,
		AvgOutDeg: avgOutDeg, PIn: pin, Seed: seed, Uniform: true})
}

// Options configure an Engine.
type Options struct {
	// C is the restart probability (default 0.15).
	C float64
	// Eps is the convergence tolerance of the preprocessing iteration
	// (default 1e-9).
	Eps float64
	// S is the first iteration of the neighbor part: queries compute
	// exactly S propagation steps. Larger S = slower and more accurate
	// (default 5).
	S int
	// T is the first iteration of the stranger part, estimated by
	// PageRank (default 10). Must exceed S.
	T int
	// Workers is the default pool size of a Request with Each (0 means
	// GOMAXPROCS). Dense operator applications — preprocessing, a write's
	// reindex, a query hop whose frontier has spread — fan out over the
	// walk's row blocks instead, one per GOMAXPROCS (a sharded engine's are
	// its shards).
	Workers int
	// Precision selects the storage precision of the CPI index: Float64
	// (the default) or Float32, which halves the index and runs the online
	// propagation in float32 (the float64 preprocessing master is kept for
	// reindexing, so mutation accuracy is unaffected). The Theorem-2 bound
	// still holds up to float32 rounding (~1e-4 L1 at default parameters).
	Precision Precision
}

// Precision is the storage precision of the CPI index (see
// Options.Precision).
type Precision = core.Precision

// Index precision variants.
const (
	Float64 = core.Float64
	Float32 = core.Float32
)

// ParsePrecision parses a -precision flag value: "", "64", "f64", "float64"
// → Float64; "32", "f32", "float32" → Float32.
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// Defaults returns the paper's standard configuration: c = 0.15, ε = 1e-9,
// S = 5, T = 10.
func Defaults() Options { return Options{C: 0.15, Eps: 1e-9, S: 5, T: 10} }

func (o Options) split() (rwr.Config, core.Params) {
	return rwr.Config{C: o.C, Eps: o.Eps}, core.Params{S: o.S, T: o.T}
}

// Engine is a preprocessed TPA instance bound to one graph. It is safe for
// concurrent Query/TopK calls. Engines are immutable: ApplyEdges returns a
// NEW engine serving the mutated graph while the receiver keeps serving the
// old one, so a server can swap engines atomically under live traffic.
type Engine struct {
	tpa *core.TPA
	// walk is the in-memory CSR operator.
	walk *graph.Walk
	// workers is the default parallelism for batch queries (0 = GOMAXPROCS).
	workers int
	// perm/inv are the shard plan's node maps (perm[internal] = external,
	// inv[external] = internal), both nil on unpermuted engines. See
	// remap.go: they are applied only at this API boundary.
	perm, inv []int32
	// shards are a sharded engine's shard bounds, which are also walk's
	// row blocks; nil on unsharded engines.
	shards []int
	// snap pins the memory-mapped snapshot an mmap-loaded engine serves
	// from (nil for heap engines); Close releases the mapping.
	snap *mmapio.Snapshot
}

// Permutation returns a copy of the node map perm[internal] = external, or
// nil for unpermuted engines. A sharded engine's comes from its shard plan;
// a snapshot carries it (older snapshots may hold a build-time ordering).
// All public APIs already speak external ids; this is for introspection and
// tests.
func (e *Engine) Permutation() []int32 {
	if e.perm == nil {
		return nil
	}
	out := make([]int32, len(e.perm))
	copy(out, e.perm)
	return out
}

// Precision returns the storage precision of the engine's index.
func (e *Engine) Precision() Precision { return e.tpa.Precision() }

// New runs TPA's preprocessing phase on g and returns a queryable Engine.
// Its dense matvecs fan out over the walk's row blocks (one per
// GOMAXPROCS); a query's sparse hops push serially, with an Each request
// providing cross-query parallelism.
func New(g *Graph, o Options) (*Engine, error) {
	_, params := o.split()
	return (&Engine{walk: graph.NewWalk(g, graph.DanglingSelfLoop)}).build(params, o)
}

// build completes an engine under construction: it runs the preprocessing
// phase on the engine's walk and sets the index at the requested precision.
func (e *Engine) build(params core.Params, o Options) (*Engine, error) {
	cfg, _ := o.split()
	tp, err := core.PreprocessParallel(e.walk, cfg, params, o.Workers)
	if err != nil {
		return nil, fmt.Errorf("tpa: preprocessing: %w", err)
	}
	if err := tp.SetPrecision(o.Precision); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	}
	e.tpa, e.workers = tp, o.Workers
	return e, nil
}

// AutoTune selects S and T for the graph (sampling a few exact queries)
// and returns the tuned engine. maxBound caps the Theorem-2 error bound
// 2(1-c)^S; pass 0 for the default 0.9.
func AutoTune(g *Graph, o Options, maxBound float64, sampleSeeds []int) (*Engine, error) {
	cfg, _ := o.split()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	params, err := core.SelectParams(w, cfg, maxBound, sampleSeeds)
	if err != nil {
		return nil, fmt.Errorf("tpa: tuning: %w", err)
	}
	return (&Engine{walk: w}).build(params, o)
}

// Request is one call of the online phase: the walk restarts uniformly
// over Seeds (a seed listed twice gets twice the share), K = 0 asks for the
// score vector and K > 0 for the top K, and Each answers every seed on its
// own over a pool of Workers goroutines (≤ 0 means Options.Workers, or
// GOMAXPROCS if that was 0 too). Seeds are the caller's node ids.
type Request = core.Request

// Answer is one answer of a Request: Scores (K = 0) or Top (K > 0), and
// the QueryMeta of how it completed.
type Answer = core.Answer

// QueryMeta describes how an answer completed: whether the context expired
// mid-computation (Partial), the split point actually realized (EffectiveS
// ≤ S), and the bound the returned answer is guaranteed to meet:
// 2(1-c)^EffectiveS (Theorem 2) plus the engine's StaleBound.
type QueryMeta = core.QueryMeta

// Answer runs TPA's online phase for req: one answer for the seed set, or
// with Each one per seed in Seeds order. Every seed is validated up front,
// so a bad one fails the whole request before any work runs; a set without
// Each must be non-empty. A top-k answer ranks the scores as they are
// computed and never writes them to a vector, so it allocates only its k
// entries; it is exactly TopKOf of the K = 0 answer, equal scores ranked by
// ascending node id.
//
// TPA's online phase accumulates the answer one propagation step at a
// time, so an answer cut short after S' < S steps is not a failure — it is
// a valid TPA approximation with split point S', within 2(1-c)^S' of exact
// RWR (Theorem 2). When ctx expires mid-computation the head computed so
// far is rescaled by the Lemma-2 masses for S' and returned flagged
// Partial; an unexpired ctx reproduces the full answer exactly. The seeds
// of an Each request share ctx and degrade independently: early seeds
// complete at full S, late ones come back Partial. This is the engine half
// of SLO-driven serving: a deadline degrades accuracy, never availability.
func (e *Engine) Answer(ctx context.Context, req Request) ([]Answer, error) {
	return e.answer(ctx, req, nil)
}

// answer is Answer appending to dst, so a caller holding a one-answer
// array answers a seed set without allocating the answer list.
func (e *Engine) answer(ctx context.Context, req Request, dst []Answer) ([]Answer, error) {
	var one [1]int
	req.Seeds = e.toInternalSeeds(req.Seeds, one[:])
	if req.Workers <= 0 {
		req.Workers = e.workers
	}
	return e.tpa.Answer(ctx, req, e.perm, dst)
}

// one answers a request without Each under a context that never expires.
func (e *Engine) one(req Request) (Answer, error) {
	var buf [1]Answer
	as, err := e.answer(context.Background(), req, buf[:0])
	if err != nil {
		return Answer{}, err
	}
	return as[0], nil
}

// Query returns the approximate RWR score vector for the seed node
// (length = number of nodes, sums to ≈1): the request {Seeds: {seed}}.
func (e *Engine) Query(seed int) ([]float64, error) {
	a, err := e.one(Request{Seeds: []int{seed}})
	return a.Scores, err
}

// TopK returns the k nodes most relevant to the seed, highest score first
// and equal scores by ascending node id: the request {Seeds: {seed}, K: k},
// exactly TopKOf(Query(seed), k). A call allocates only its k entries.
func (e *Engine) TopK(seed, k int) ([]Entry, error) {
	a, err := e.one(Request{Seeds: []int{seed}, K: k})
	return a.Top, err
}

// TopKBatch answers a top-k query per seed over a pool of parallelism
// workers: the request {Seeds: seeds, K: k, Each: true, Workers:
// parallelism}, returning only the k best entries per seed.
func (e *Engine) TopKBatch(seeds []int, k, parallelism int) ([][]Entry, error) {
	as, err := e.Answer(context.Background(), Request{Seeds: seeds, K: k, Each: true, Workers: parallelism})
	if err != nil {
		return nil, err
	}
	tops := make([][]Entry, len(as))
	for i, a := range as {
		tops[i] = a.Top
	}
	return tops, nil
}

// Params returns the S and T split points in effect.
func (e *Engine) Params() (s, t int) {
	p := e.tpa.Params()
	return p.S, p.T
}

// ErrorBound returns the a-priori L1 error guarantee: 2(1-c)^S of Theorem 2
// plus StaleBound, which keeps an engine that took writes within
// 2(1-c)^{S-1}.
func (e *Engine) ErrorBound() float64 { return e.tpa.ErrorBound() }

// StaleBound returns the L1 bound on how far the engine's stranger vector
// may sit from the exact one of the graph it serves: at most
// τ = 2c(1-c)^{S-1}/1000 for a freshly built engine, whose preprocessing
// stops on that proven tail bound instead of at ε (see core.Preprocess), and
// at most 2c(1-c)^{S-1} after ApplyEdges, which stops correcting the index
// there (see core.Reindex).
func (e *Engine) StaleBound() float64 { return e.tpa.StaleBound() }

// PreprocessIters returns how many dense applications the build's
// preprocessing ran (kept across snapshots and writes).
func (e *Engine) PreprocessIters() int { return e.tpa.PreprocessIters() }

// IndexBytes returns the size of the preprocessed data as shipped (8 bytes
// per node, or 4 for Float32 engines).
func (e *Engine) IndexBytes() int64 { return e.tpa.IndexBytes() }

// Graph returns the in-memory CSR graph the engine serves. For permuted
// engines (sharded, or loaded from an ordered snapshot) this is the
// INTERNAL graph; use Permutation to translate its node ids back to
// external ones.
func (e *Engine) Graph() *Graph { return e.walk.Graph() }

// NumNodes returns the node count of the served graph.
func (e *Engine) NumNodes() int { return e.tpa.Walk().N() }

// NumEdges returns the edge count of the served graph.
func (e *Engine) NumEdges() int64 { return e.walk.Graph().NumEdges() }

// MutationStats reports what one ApplyEdges call did.
type MutationStats struct {
	// Added and Removed count the mutations that took effect (inserting an
	// existing edge or removing a missing one is a no-op).
	Added, Removed int
	// Nodes and Edges describe the mutated graph the new engine serves.
	Nodes int
	Edges int64
	// Compacted reports that the batch changed the graph and the new engine
	// serves a freshly compacted CSR: true for every batch but an all-no-op
	// one.
	Compacted bool
	// Residual is the L1 residual mass the reindex started from.
	Residual float64
	// HeadIters is the dense head steps the reindex ran: T−1 when it
	// recomputed the head, 0 when the write skipped it (see core.ReindexWrite).
	HeadIters int
	// ReindexIters is the total propagation steps the reindex spent: the
	// head steps, one application for the residual (two when a refused head
	// skip preceded the recompute), and one per correction step. A skipped
	// head costs 1, a recomputed one T.
	ReindexIters int
	// StaleBound is the new engine's StaleBound: the part of its error
	// bound the reindex left uncorrected.
	StaleBound float64
}

// ErrBadEdge is wrapped by ApplyEdges when a batch references a node
// outside the graph's fixed node range — a caller mistake, as opposed to
// an internal reindexing failure. Test with errors.Is.
var ErrBadEdge = graph.ErrBadEdge

// ApplyEdges returns a new engine serving the graph with the edge batch
// applied: every edge of adds inserted, then every edge of removes deleted.
// The receiver is untouched and keeps answering queries, so a server can
// atomically swap the returned engine in with zero dropped requests — the
// same discipline as snapshot reload.
//
// The batch is sorted and merged straight into a fresh CSR and CSC
// (graph.Graph.WithEdges): every reindex propagation runs on the plain CSR
// kernels, and float32 engines stay on their float32 kernels. The
// preprocessed index is corrected incrementally (see core.ReindexWrite):
// when the bound on the batch's dirty rows allows, the write reuses the head
// iterate of an earlier write and spends one operator application;
// otherwise it recomputes the head (T applications) and corrects the
// residual until what is left uncorrected fits the slack between Theorem 2
// at S and at S-1. That StaleBound is added to ErrorBound and to every
// QueryMeta.Bound. The head state lives on the heap only, so the first
// write on an engine built by New or loaded from a snapshot recomputes. A
// batch whose every edge is a no-op returns the receiver itself with no
// reindexing: the graph did not change.
//
// Every engine takes writes. A memory-mapped engine's batch compacts onto
// the heap like any other, so the new engine holds no view into the
// mapping and outlives the receiver's Close. A sharded engine re-splits
// the compacted CSR along its fixed shard bounds and reindexes on the new
// walk, whose matvec counters (ShardMatvecs) start over with that
// reindex's applications.
//
// Edges must reference existing nodes — a bad id fails the whole batch
// with an error wrapping ErrBadEdge; growing the node set requires a
// rebuild with New.
func (e *Engine) ApplyEdges(adds, removes [][2]int) (*Engine, MutationStats, error) {
	var stats MutationStats
	adds, err := e.toInternalEdges(adds)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: applying edges: %w", err)
	}
	removes, err = e.toInternalEdges(removes)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: applying edges: %w", err)
	}
	g := e.walk.Graph()
	ng, added, removed, err := g.WithEdges(adds, removes)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: applying edges: %w", err)
	}
	stats.Added, stats.Removed = len(added), len(removed)
	stats.Nodes = e.NumNodes()
	if len(added) == 0 && len(removed) == 0 {
		// The whole batch was a no-op: the graph is unchanged, so the
		// receiver is the mutated engine. No reindex, no swap needed.
		stats.Edges = e.NumEdges()
		return e, stats, nil
	}

	next := &Engine{walk: graph.NewWalk(ng, graph.DanglingSelfLoop), workers: e.workers,
		perm: e.perm, inv: e.inv, shards: e.shards}
	if e.snap != nil && e.perm != nil {
		// The receiver's perm is a view into its mapping.
		next.perm = append([]int32(nil), e.perm...)
	}
	if e.shards != nil {
		if next.walk, err = next.walk.WithBlocks(e.shards); err != nil {
			return nil, stats, fmt.Errorf("tpa: sharding: %w", err)
		}
	}
	dirty := core.DirtyRows(added, removed, g.OutDegree, ng.OutDegree)
	tp, rs, err := core.ReindexWrite(e.tpa, next.walk, dirty)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: reindexing: %w", err)
	}
	next.tpa = tp
	stats.Compacted = true
	stats.Residual = rs.Residual
	stats.HeadIters = rs.HeadIters
	stats.ReindexIters = rs.Iters()
	stats.StaleBound = rs.StaleBound
	stats.Edges = next.NumEdges()
	return next, stats, nil
}

// ErrBadSnapshot is wrapped by every snapshot decode failure caused by the
// file itself — bad magic, unsupported version, truncation, checksum
// mismatch or an invalid structure. Test with errors.Is; loaders never
// return partial state alongside it.
var ErrBadSnapshot = binio.ErrBadSnapshot

// SaveSnapshotFile is SaveSnapshotMmap: every snapshot is a TPAM file.
// The name stays for the benchmark trace, which calls it; it goes once
// that trace times the TPAM pair under its own names.
func (e *Engine) SaveSnapshotFile(path string) error { return e.SaveSnapshotMmap(path) }

// LoadSnapshotFile is LoadSnapshotMmap, kept for the same reason as
// SaveSnapshotFile.
func LoadSnapshotFile(path string) (*Engine, error) { return LoadSnapshotMmap(path) }

// Exact computes the exact RWR vector for the seed by cumulative power
// iteration run to convergence — the ground truth TPA approximates. It
// needs no preprocessing but costs log_{1-c}(ε/c) ≈ 130 propagation steps
// per query at the defaults.
func Exact(g *Graph, seed int, o Options) ([]float64, error) {
	cfg, _ := o.split()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	r, err := core.ExactRWR(w, seed, cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// PageRank computes the global PageRank vector of g (RWR with every node
// as seed).
func PageRank(g *Graph, o Options) ([]float64, error) {
	cfg, _ := o.split()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	r, err := core.PageRankCPI(w, cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// TopKOf ranks an arbitrary score vector, highest first.
func TopKOf(scores []float64, k int) []Entry { return sparse.Vector(scores).TopK(k) }
