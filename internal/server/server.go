// Package server provides the HTTP query service in front of TPA engines
// (cmd/tpad): JSON endpoints for top-k queries, single scores, multi-seed
// personalized PageRank, batched top-k, and introspection. It is the "query
// server" deployment shape the paper's preprocessing/online split is
// designed for — preprocess once, ship the O(n) index, answer seeds cheaply.
//
// A Handler is a registry of named graphs. Each graph serves under
// /graphs/{name}/…; one graph may additionally be nominated the default and
// answer the bare single-graph routes (/topk, /batch, …) for compatibility.
// Every graph's serving state — engine, metadata, and its partition of the
// LRU top-k cache — lives behind an atomic pointer, so POST
// /graphs/{name}/reload hot-swaps a rebuilt engine with zero dropped
// in-flight queries and no stale cache entries.
//
// The production serving features are opt-in through Options: a bounded LRU
// cache of top-k answers partitioned per graph, a worker pool fanning
// POST /batch out across the engine's concurrent query path, a
// request-concurrency limit that sheds load with 503 instead of queueing
// unboundedly, and per-endpoint latency / cache hit-rate counters exposed
// on GET /stats.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpa/internal/core"
	"tpa/internal/sparse"
)

// Engine is the query interface the server fronts. *tpa.Engine satisfies
// it. Every query runs under a context: one that never expires for a
// request without a budget (the answer is then always complete), one cut
// off at the request's deadline otherwise. A context that expires
// mid-query yields the head computed so far as a valid reduced-S
// approximation with its own Theorem-2 bound, flagged Partial in the
// returned core.QueryMeta; it degrades accuracy, never availability. A
// query takes a seed set, restarting uniformly over it; /topk and /score
// pass the set of one seed.
type Engine interface {
	QueryDeadline(ctx context.Context, seeds []int) ([]float64, core.QueryMeta, error)
	TopKDeadline(ctx context.Context, seeds []int, k int) ([]sparse.Entry, core.QueryMeta, error)
	TopKBatchDeadline(ctx context.Context, seeds []int, k, parallelism int) ([][]sparse.Entry, []core.QueryMeta, error)
	Params() (s, t int)
	IndexBytes() int64
	ErrorBound() float64
}

// shardInfo is the optional capability interface for scatter-gather
// engines: how many shards dense operator applications fan out across, the
// node/edge split between them, and how many applications went to the
// serial push kernel (sparse input) and to the pull fan-out (dense input).
// *tpa.Engine implements it (reporting one shard when built unsharded);
// engines without it are treated as single-shard.
type shardInfo interface {
	NumShards() int
	ShardLayout() (nodes []int, edges []int64)
	ShardMatvecs() (push, pull int64)
}

// storageInfo is the optional capability interface for engines that know
// where their bytes live: mapped is storage served zero-copy from a file
// mapping (shared page cache), heap is private allocations. *tpa.Engine
// implements it.
type storageInfo interface {
	StorageBytes() (mapped, heap int64)
	Mapped() bool
}

// staleInfo is the optional capability interface for engines whose index
// may lag the graph after writes: StaleBound is the part of ErrorBound the
// last reindex left uncorrected. *tpa.Engine implements it.
type staleInfo interface {
	StaleBound() float64
}

// DeadlineHeader is the request header carrying a per-query budget in
// milliseconds. It overrides Options.DefaultDeadline; an explicit 0
// disables the deadline for that request.
const DeadlineHeader = "X-TPA-Deadline-Ms"

// maxDeadlineMS is the largest DeadlineHeader value whose budget fits a
// time.Duration; larger values would wrap around.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// Info describes a served graph for the /stats and /graphs endpoints.
type Info struct {
	Nodes int    `json:"nodes"`
	Edges int64  `json:"edges"`
	Name  string `json:"name,omitempty"`
}

// Options configure the production serving features.
type Options struct {
	// Workers is the fan-out of POST /batch over the engine's worker pool.
	// 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds each graph's partition of the LRU top-k result
	// cache, in entries; 0 disables caching. A reload replaces the graph's
	// partition along with its engine, so stale answers never survive a
	// swap.
	CacheSize int
	// MaxInFlight caps concurrently executing query requests across all
	// graphs; excess requests are shed with 503 Service Unavailable. 0
	// means unlimited. /healthz, /stats, /graphs and reloads are never
	// limited.
	MaxInFlight int
	// MaxBatch rejects /batch and /queryset requests carrying more seeds
	// with 413. 0 means unlimited.
	MaxBatch int
	// DefaultDeadline is the per-query budget applied when a request does
	// not carry the DeadlineHeader. 0 means no default; queries run to
	// completion.
	DefaultDeadline time.Duration
}

// DefaultOptions returns the serving defaults: a 4096-entry cache per
// graph and a 256-request concurrency limit.
func DefaultOptions() Options {
	return Options{CacheSize: 4096, MaxInFlight: 256}
}

// Handler serves the TPA query API over a registry of named graphs:
//
//	GET  /topk?seed=42&k=10       → default graph (see SetDefault)
//	GET  /score?seed=42&node=7
//	POST /batch     {"seeds":[1,2,3],"k":10}
//	POST /queryset  {"seeds":[1,2],"k":10}
//	GET  /graphs                  → registry listing
//	GET  /graphs/{name}/topk      (same contract as the bare routes)
//	GET  /graphs/{name}/score
//	POST /graphs/{name}/batch
//	POST /graphs/{name}/queryset
//	GET  /graphs/{name}/stats     → per-graph metadata + counters
//	POST /graphs/{name}/reload    → rebuild + atomically swap the engine
//	POST /graphs/{name}/edges     → apply an edge batch + swap the engine
//	GET  /stats                   → global serving counters
//	GET  /healthz                 → 200 ok
//
// See docs/API.md for request/response details.
type Handler struct {
	opts Options
	mux  *http.ServeMux

	sem       chan struct{} // nil when Options.MaxInFlight == 0
	inFlight  atomic.Int64
	endpoints map[string]*endpointStats

	mu           sync.RWMutex
	graphs       map[string]*graphEntry
	defaultEntry *graphEntry
}

// New builds a single-graph handler with DefaultOptions; eng serves both
// the bare routes and /graphs/default/….
func New(eng Engine, info Info) *Handler { return NewWith(eng, info, DefaultOptions()) }

// NewWith builds a single-graph handler with explicit serving options.
func NewWith(eng Engine, info Info, opts Options) *Handler {
	h := NewRegistry(opts)
	if err := h.Register("default", eng, info); err != nil {
		panic(err) // unreachable: "default" is valid and the registry is empty
	}
	if err := h.SetDefault("default"); err != nil {
		panic(err)
	}
	return h
}

// NewRegistry builds an empty multi-graph handler; add graphs with
// Register or RegisterLoader. Without SetDefault the bare single-graph
// routes answer 404.
func NewRegistry(opts Options) *Handler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	h := &Handler{
		opts:      opts,
		mux:       http.NewServeMux(),
		endpoints: make(map[string]*endpointStats),
		graphs:    make(map[string]*graphEntry),
	}
	if opts.MaxInFlight > 0 {
		h.sem = make(chan struct{}, opts.MaxInFlight)
	}
	h.handle("GET /topk", "topk", h.topk)
	h.handle("GET /score", "score", h.score)
	h.handle("POST /batch", "batch", h.batch)
	h.handle("POST /queryset", "queryset", h.querySet)
	h.handle("GET /graphs/{name}/topk", "topk", h.topk)
	h.handle("GET /graphs/{name}/score", "score", h.score)
	h.handle("POST /graphs/{name}/batch", "batch", h.batch)
	h.handle("POST /graphs/{name}/queryset", "queryset", h.querySet)
	h.mux.HandleFunc("GET /graphs", h.listGraphs)
	h.mux.HandleFunc("GET /graphs/{name}/stats", h.graphStats)
	h.mux.HandleFunc("POST /graphs/{name}/reload", h.reloadGraph)
	h.mux.HandleFunc("POST /graphs/{name}/edges", h.mutateGraph)
	h.mux.HandleFunc("GET /stats", h.stats)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// handle registers a query endpoint behind the concurrency limiter, the
// shared request options and the latency instrumentation; fn runs with the
// request's deadline budget (0 = none). The bare and /graphs/{name}/ forms
// of a route share one stats entry: they are the same operation.
func (h *Handler) handle(pattern, name string, fn func(w http.ResponseWriter, r *http.Request, budget time.Duration)) {
	st := h.endpoints[name]
	if st == nil {
		st = &endpointStats{}
		h.endpoints[name] = st
	}
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if h.sem != nil {
			select {
			case h.sem <- struct{}{}:
				defer func() { <-h.sem }()
			default:
				st.reject()
				httpError(w, http.StatusServiceUnavailable, "server at capacity")
				return
			}
		}
		h.inFlight.Add(1)
		defer h.inFlight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if budget, err := h.queryOptions(r); err != nil {
			httpError(sw, http.StatusBadRequest, err.Error())
		} else {
			fn(sw, r, budget)
		}
		st.observe(time.Since(start), sw.code)
		if sw.partial {
			st.partial.Add(1)
		}
	})
}

// queryOptions checks the request options every query endpoint shares and
// returns the request's deadline budget:
//
//   - method: TPA is the only engine served. Any other name is rejected
//     rather than silently answered by TPA; the paper's comparison with the
//     other methods runs offline in `tpad arena`.
//   - DeadlineHeader: when present it overrides Options.DefaultDeadline (an
//     explicit 0 disables the deadline for this request).
func (h *Handler) queryOptions(r *http.Request) (time.Duration, error) {
	if m := r.URL.Query().Get("method"); m != "" && !strings.EqualFold(m, "tpa") {
		return 0, fmt.Errorf("method %q is not served: tpa is the only engine behind this API (compare methods offline with `tpad arena`)", m)
	}
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return h.opts.DefaultDeadline, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 || ms > maxDeadlineMS {
		return 0, fmt.Errorf("invalid %s header %q: want an integer in [0, %d]", DeadlineHeader, v, maxDeadlineMS)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// queryContext is the context a query runs under: r's context cut off
// after budget, or, without a budget, one that never expires. It must not
// be r's context then: a response without a budget carries no deadline
// fields to flag a partial answer, so its answer must always be complete.
func queryContext(r *http.Request, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget == 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(r.Context(), budget)
}

// markPartial flags the in-flight response as carrying a deadline-partial
// answer, so the endpoint's partial counter ticks when it completes.
func markPartial(w http.ResponseWriter) {
	if sw, ok := w.(*statusWriter); ok {
		sw.partial = true
	}
}

// fullMeta is the QueryMeta of a complete answer at the engine's own S (a
// cache hit, say).
func fullMeta(eng Engine) core.QueryMeta {
	s, _ := eng.Params()
	return core.QueryMeta{EffectiveS: s, Steps: s - 1, Bound: eng.ErrorBound()}
}

// writeAnswer writes a single-answer response. Under a budget it carries
// the deadline fields of meta; without one the answer is always complete
// and the response has none. A partial answer ticks the endpoint's partial
// counter.
func writeAnswer(w http.ResponseWriter, resp map[string]interface{}, budget time.Duration, meta core.QueryMeta) {
	if meta.Partial {
		markPartial(w)
	}
	if budget > 0 {
		resp["partial"] = meta.Partial
		resp["effective_s"] = meta.EffectiveS
		resp["residual_bound"] = meta.Bound
	}
	writeJSON(w, resp)
}

// entryJSON is the wire form of a scored node.
type entryJSON struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

func toJSON(es []sparse.Entry) []entryJSON {
	out := make([]entryJSON, len(es))
	for i, e := range es {
		out[i] = entryJSON{Node: e.Index, Score: e.Score}
	}
	return out
}

func (h *Handler) topk(w http.ResponseWriter, r *http.Request, budget time.Duration) {
	e, st, ok := h.resolve(w, r)
	if !ok {
		return
	}
	seed, err := intParam(r, "seed", -1)
	if err != nil || seed < 0 {
		httpError(w, http.StatusBadRequest, "missing or invalid seed")
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil || k < 1 {
		httpError(w, http.StatusBadRequest, "invalid k")
		return
	}
	e.queries.Add(1)
	ctx, cancel := queryContext(r, budget)
	defer cancel()
	top, meta, err := st.cachedTopK(ctx, seed, k)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeAnswer(w, map[string]interface{}{"seed": seed, "results": toJSON(top)}, budget, meta)
}

func (h *Handler) score(w http.ResponseWriter, r *http.Request, budget time.Duration) {
	e, st, ok := h.resolve(w, r)
	if !ok {
		return
	}
	seed, err := intParam(r, "seed", -1)
	if err != nil || seed < 0 {
		httpError(w, http.StatusBadRequest, "missing or invalid seed")
		return
	}
	node, err := intParam(r, "node", -1)
	if err != nil || node < 0 {
		httpError(w, http.StatusBadRequest, "missing or invalid node")
		return
	}
	e.queries.Add(1)
	ctx, cancel := queryContext(r, budget)
	defer cancel()
	scores, meta, err := st.eng.QueryDeadline(ctx, []int{seed})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if node >= len(scores) {
		httpError(w, http.StatusUnprocessableEntity, "node out of range")
		return
	}
	writeAnswer(w, map[string]interface{}{"seed": seed, "node": node, "score": scores[node]}, budget, meta)
}

// batchRequest is the POST /batch body.
type batchRequest struct {
	Seeds []int `json:"seeds"`
	K     int   `json:"k"`
}

// seedResult is one per-seed answer in the POST /batch response. The
// deadline fields appear only on seeds whose budget expired mid-query.
type seedResult struct {
	Seed          int         `json:"seed"`
	Results       []entryJSON `json:"results"`
	Partial       bool        `json:"partial,omitempty"`
	EffectiveS    int         `json:"effective_s,omitempty"`
	ResidualBound float64     `json:"residual_bound,omitempty"`
}

// batch answers one top-k query per seed, checking the graph's cache
// partition per seed and fanning the misses out over the engine's worker
// pool in a single TopKBatch call.
func (h *Handler) batch(w http.ResponseWriter, r *http.Request, budget time.Duration) {
	e, st, ok := h.resolve(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Seeds) == 0 {
		httpError(w, http.StatusBadRequest, "seeds must be non-empty")
		return
	}
	if h.opts.MaxBatch > 0 && len(req.Seeds) > h.opts.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d seeds exceeds limit %d", len(req.Seeds), h.opts.MaxBatch))
		return
	}
	if req.K < 1 {
		req.K = 10
	}
	e.queries.Add(1)
	out := make([]seedResult, len(req.Seeds))
	var missSeeds, missPos []int
	for i, s := range req.Seeds {
		if st.cache != nil {
			if top, ok := st.cache.Get(s, req.K); ok {
				out[i] = seedResult{Seed: s, Results: toJSON(top)}
				continue
			}
		}
		missSeeds = append(missSeeds, s)
		missPos = append(missPos, i)
	}
	partialCount := 0
	if len(missSeeds) > 0 {
		// The whole batch shares one budget; each seed degrades
		// independently as it runs out (see TPA.TopKBatchDeadline).
		ctx, cancel := queryContext(r, budget)
		defer cancel()
		tops, metas, err := st.eng.TopKBatchDeadline(ctx, missSeeds, req.K, h.opts.Workers)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		for j, top := range tops {
			res := seedResult{Seed: missSeeds[j], Results: toJSON(top)}
			if metas[j].Partial {
				res.Partial = true
				res.EffectiveS = metas[j].EffectiveS
				res.ResidualBound = metas[j].Bound
				partialCount++
			} else if st.cache != nil {
				st.cache.Put(missSeeds[j], req.K, top)
			}
			out[missPos[j]] = res
		}
	}
	if partialCount > 0 {
		markPartial(w)
	}
	resp := map[string]interface{}{"k": req.K, "results": out}
	if budget > 0 {
		resp["partial_count"] = partialCount
	}
	writeJSON(w, resp)
}

// querySetRequest is the POST /queryset body.
type querySetRequest struct {
	Seeds []int `json:"seeds"`
	K     int   `json:"k"`
}

func (h *Handler) querySet(w http.ResponseWriter, r *http.Request, budget time.Duration) {
	e, st, ok := h.resolve(w, r)
	if !ok {
		return
	}
	var req querySetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Seeds) == 0 {
		httpError(w, http.StatusBadRequest, "seeds must be non-empty")
		return
	}
	if h.opts.MaxBatch > 0 && len(req.Seeds) > h.opts.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("seed set of %d exceeds limit %d", len(req.Seeds), h.opts.MaxBatch))
		return
	}
	if req.K < 1 {
		req.K = 10
	}
	e.queries.Add(1)
	ctx, cancel := queryContext(r, budget)
	defer cancel()
	top, meta, err := st.eng.TopKDeadline(ctx, req.Seeds, req.K)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeAnswer(w, map[string]interface{}{"seeds": req.Seeds, "results": toJSON(top)}, budget, meta)
}

// stats serves the global counters. When a default graph is set its
// metadata is inlined for compatibility with single-graph deployments;
// every registered graph appears in the "graphs" summary either way.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	endpoints := make(map[string]interface{}, len(h.endpoints))
	for name, st := range h.endpoints {
		endpoints[name] = st.snapshot()
	}
	h.mu.RLock()
	def := h.defaultEntry
	names := make([]string, 0, len(h.graphs))
	for name := range h.graphs {
		names = append(names, name)
	}
	queries := int64(0)
	for _, e := range h.graphs {
		queries += e.queries.Load()
	}
	h.mu.RUnlock()

	resp := map[string]interface{}{
		"workers":       h.opts.Workers,
		"max_in_flight": h.opts.MaxInFlight,
		"in_flight":     h.inFlight.Load(),
		"endpoints":     endpoints,
		"graph_count":   len(names),
		"graph_queries": queries,
	}
	if def != nil {
		st := def.state.Load()
		s, t := st.eng.Params()
		resp["graph"] = st.info
		resp["s"] = s
		resp["t"] = t
		resp["index_bytes"] = st.eng.IndexBytes()
		resp["error_bound"] = st.eng.ErrorBound()
		cache := map[string]interface{}{"enabled": false}
		if st.cache != nil {
			cache = st.cache.snapshot()
		}
		resp["cache"] = cache
	}
	writeJSON(w, resp)
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing more to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
