package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"tpa/internal/core"
	"tpa/internal/ingest"
	"tpa/internal/sparse"
)

// Loader builds (or rebuilds) an engine for a registered graph. The
// registry calls it once at registration and again on every
// POST /graphs/{name}/reload; it must return a fully preprocessed engine —
// typically by loading a snapshot file or re-running preprocessing on a
// fresh edge list.
type Loader func() (Engine, Info, error)

// engineState is the immutable serving state of one graph: the engine, its
// metadata and its partition of the LRU cache. A reload builds a whole new
// state and swaps the pointer, so in-flight requests keep the state they
// resolved and never observe a half-replaced engine or a stale cache.
type engineState struct {
	eng      Engine
	info     Info
	cache    *topkCache // nil when Options.CacheSize == 0
	loadedAt time.Time
}

// cachedTopK answers a top-k query through this state's cache partition. A
// hit is a complete answer at the engine's own S. A miss runs the engine
// under ctx, and only complete answers enter the cache: the next request
// may have a healthier budget and deserves the full answer.
func (st *engineState) cachedTopK(ctx context.Context, seed, k int) ([]sparse.Entry, core.QueryMeta, error) {
	if st.cache != nil {
		if top, ok := st.cache.Get(seed, k); ok {
			return top, fullMeta(st.eng), nil
		}
	}
	top, meta, err := st.eng.TopKDeadline(ctx, []int{seed}, k)
	if err == nil && !meta.Partial && st.cache != nil {
		st.cache.Put(seed, k, top)
	}
	return top, meta, err
}

// graphEntry is one named graph in the registry. The entry itself is
// stable for the life of the process; only its state pointer moves.
type graphEntry struct {
	name   string
	loader Loader // nil when registered with a fixed engine (not reloadable)
	state  atomic.Pointer[engineState]
	// swap is a size-1 semaphore serializing state swaps (reloads and
	// mutations), not queries. HTTP paths use trySwap (non-blocking, 409
	// on contention); the ingest batcher uses acquireSwap to wait out a
	// concurrent reload instead of failing a durably logged batch.
	swap      chan struct{}
	queries   atomic.Int64 // query requests routed to this graph
	reloads   atomic.Int64 // completed reloads
	mutations atomic.Int64 // completed edge mutations
	// reindexIters sums MutationStats.ReindexIters over those mutations, and
	// headSkips counts the ones whose reindex skipped the head.
	reindexIters atomic.Int64
	headSkips    atomic.Int64
	// ingest is the graph's durable write pipeline, nil until EnableIngest.
	// While set, POST /edges enqueues instead of applying synchronously.
	ingest atomic.Pointer[ingest.Ingestor]
}

// trySwap claims the entry's swap slot without waiting.
func (e *graphEntry) trySwap() bool {
	select {
	case e.swap <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquireSwap waits up to timeout for the swap slot.
func (e *graphEntry) acquireSwap(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case e.swap <- struct{}{}:
		return nil
	case <-timer.C:
		return fmt.Errorf("graph %q: swap lock held for over %v", e.name, timeout)
	}
}

// releaseSwap frees the slot claimed by trySwap/acquireSwap.
func (e *graphEntry) releaseSwap() { <-e.swap }

func (h *Handler) newState(eng Engine, info Info) *engineState {
	st := &engineState{eng: eng, info: info, loadedAt: time.Now()}
	if h.opts.CacheSize > 0 {
		st.cache = newTopkCache(h.opts.CacheSize)
	}
	return st
}

func validGraphName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Register adds a graph under name with a fixed engine. The graph is
// served immediately; it cannot be reloaded (use RegisterLoader for that).
func (h *Handler) Register(name string, eng Engine, info Info) error {
	return h.register(name, eng, info, nil)
}

// RegisterLoader adds a graph whose engine comes from load. load runs
// synchronously now (the graph serves as soon as RegisterLoader returns)
// and again on every POST /graphs/{name}/reload. The name is validated
// before load runs, so an unusable name cannot cost a full preprocessing
// pass.
func (h *Handler) RegisterLoader(name string, load Loader) error {
	if !validGraphName(name) {
		return fmt.Errorf("server: invalid graph name %q (want [A-Za-z0-9._-]+)", name)
	}
	h.mu.RLock()
	_, dup := h.graphs[name]
	h.mu.RUnlock()
	if dup {
		return fmt.Errorf("server: graph %q already registered", name)
	}
	eng, info, err := load()
	if err != nil {
		return fmt.Errorf("server: loading graph %q: %w", name, err)
	}
	return h.register(name, eng, info, load)
}

func (h *Handler) register(name string, eng Engine, info Info, load Loader) error {
	if !validGraphName(name) {
		return fmt.Errorf("server: invalid graph name %q (want [A-Za-z0-9._-]+)", name)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.graphs[name]; dup {
		return fmt.Errorf("server: graph %q already registered", name)
	}
	e := &graphEntry{name: name, loader: load, swap: make(chan struct{}, 1)}
	e.state.Store(h.newState(eng, info))
	h.graphs[name] = e
	return nil
}

// SetDefault routes the bare single-graph endpoints (/topk, /score,
// /batch, /queryset) to the named graph.
func (h *Handler) SetDefault(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.graphs[name]
	if !ok {
		return fmt.Errorf("server: unknown graph %q", name)
	}
	h.defaultEntry = e
	return nil
}

// GraphNames returns the registered graph names in sorted order.
func (h *Handler) GraphNames() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	names := make([]string, 0, len(h.graphs))
	for name := range h.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resolve finds the graph entry a request addresses: the {name} path
// component when present, the default graph otherwise. It writes the 404
// itself and returns ok=false when neither resolves.
func (h *Handler) resolve(w http.ResponseWriter, r *http.Request) (*graphEntry, *engineState, bool) {
	var e *graphEntry
	if name := r.PathValue("name"); name != "" {
		h.mu.RLock()
		e = h.graphs[name]
		h.mu.RUnlock()
		if e == nil {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
			return nil, nil, false
		}
	} else {
		h.mu.RLock()
		e = h.defaultEntry
		h.mu.RUnlock()
		if e == nil {
			httpError(w, http.StatusNotFound, "no default graph configured; use /graphs/{name}/...")
			return nil, nil, false
		}
	}
	return e, e.state.Load(), true
}

// listGraphs serves GET /graphs: every registered graph with its serving
// counters.
func (h *Handler) listGraphs(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	entries := make([]*graphEntry, 0, len(h.graphs))
	for _, e := range h.graphs {
		entries = append(entries, e)
	}
	h.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	graphs := make([]map[string]interface{}, len(entries))
	for i, e := range entries {
		st := e.state.Load()
		graphs[i] = map[string]interface{}{
			"name":       e.name,
			"nodes":      st.info.Nodes,
			"edges":      st.info.Edges,
			"source":     st.info.Name,
			"queries":    e.queries.Load(),
			"reloads":    e.reloads.Load(),
			"mutations":  e.mutations.Load(),
			"reloadable": e.loader != nil,
			"loaded_at":  st.loadedAt.UTC().Format(time.RFC3339),
		}
	}
	writeJSON(w, map[string]interface{}{"count": len(graphs), "graphs": graphs})
}

// graphStats serves GET /graphs/{name}/stats: the engine metadata and
// cache counters of one graph.
func (h *Handler) graphStats(w http.ResponseWriter, r *http.Request) {
	e, st, ok := h.resolve(w, r)
	if !ok {
		return
	}
	s, t := st.eng.Params()
	cache := map[string]interface{}{"enabled": false}
	if st.cache != nil {
		cache = st.cache.snapshot()
	}
	resp := map[string]interface{}{
		"name":        e.name,
		"graph":       st.info,
		"s":           s,
		"t":           t,
		"index_bytes": st.eng.IndexBytes(),
		"error_bound": st.eng.ErrorBound(),
		"queries":     e.queries.Load(),
		"reloads":     e.reloads.Load(),
		"mutations":   e.mutations.Load(),
		"reloadable":  e.loader != nil,
		"loaded_at":   st.loadedAt.UTC().Format(time.RFC3339),
		"cache":       cache,
	}
	if se, ok := st.eng.(staleInfo); ok {
		// Whichever write path moved the engine, synchronous or ingest.
		resp["stale_bound"] = se.StaleBound()
	}
	if se, ok := st.eng.(storageInfo); ok {
		mapped, heap := se.StorageBytes()
		resp["storage"] = map[string]interface{}{
			"mmap_bytes": mapped,
			"heap_bytes": heap,
			"mapped":     se.Mapped(),
		}
	}
	if se, ok := st.eng.(shardInfo); ok {
		shards := map[string]interface{}{"count": se.NumShards()}
		if nodes, edges := se.ShardLayout(); nodes != nil {
			shards["nodes"] = nodes
			shards["edges"] = edges
			push, pull := se.ShardMatvecs()
			shards["matvecs"] = map[string]int64{"push": push, "pull": pull}
		}
		resp["shards"] = shards
	}
	if in := e.ingest.Load(); in != nil {
		resp["ingest"] = ingestJSON(in)
	}
	writeJSON(w, resp)
}

// reloadGraph serves POST /graphs/{name}/reload: rebuild the engine via
// the registered loader and atomically swap it in. Queries in flight keep
// the state they resolved, so nothing is dropped; the cache partition is
// replaced along with the engine, so no stale answer survives the swap.
// Concurrent reloads of the same graph are rejected with 409.
func (h *Handler) reloadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h.mu.RLock()
	e := h.graphs[name]
	h.mu.RUnlock()
	if e == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	if e.loader == nil {
		httpError(w, http.StatusConflict,
			fmt.Sprintf("graph %q was registered with a fixed engine and cannot be reloaded", name))
		return
	}
	if !e.trySwap() {
		httpError(w, http.StatusConflict, fmt.Sprintf("reload or mutation of %q already in progress", name))
		return
	}
	defer e.releaseSwap()
	start := time.Now()
	eng, info, err := e.loader()
	if err != nil {
		// The previous state keeps serving; a failed reload changes nothing.
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("reload failed: %v", err))
		return
	}
	e.state.Store(h.newState(eng, info))
	writeJSON(w, map[string]interface{}{
		"graph":      name,
		"nodes":      info.Nodes,
		"edges":      info.Edges,
		"reloads":    e.reloads.Add(1),
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
}
