package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"tpa"
)

// Dynamic graph updates: POST /graphs/{name}/edges applies an edge batch to
// a served graph. The handler builds a whole new engine via
// tpa.Engine.ApplyEdges (copy-on-write: the old engine keeps serving while
// the delta is applied and the index reindexed) and then swaps it in behind
// the same atomic state pointer reloads use, so concurrent queries are
// never dropped and never observe a half-mutated engine. The graph's cache
// partition is replaced along with the engine — no stale answer survives a
// mutation. Mutations and reloads of one graph serialize on the entry's
// swap lock; a POST /graphs/{name}/reload rebuilds from the registered
// loader and therefore discards mutations applied since.

// mutateRequest is the POST /graphs/{name}/edges body: edge batches as
// [source, destination] pairs. Adds are applied before removes.
type mutateRequest struct {
	Add    [][2]int `json:"add"`
	Remove [][2]int `json:"remove"`
}

// maxMutationBody caps the POST /edges request body. Unbounded bodies
// would let one request balloon memory, and on the durable path a batch
// over the WAL record limit would be acknowledged now and discarded as
// corruption by the next restart's replay. A var, not a const, so tests
// can lower it.
var maxMutationBody = int64(64 << 20)

// mutateGraph serves POST /graphs/{name}/edges.
func (h *Handler) mutateGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h.mu.RLock()
	e := h.graphs[name]
	h.mu.RUnlock()
	if e == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxMutationBody)
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("mutation body exceeds %d bytes: split the batch", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		httpError(w, http.StatusBadRequest, "empty mutation: provide add and/or remove edge lists")
		return
	}
	// Durable ingestion (EnableIngest): enqueue through the WAL-backed
	// pipeline and acknowledge with 202; the batcher applies in order.
	if in := e.ingest.Load(); in != nil {
		h.ingestMutate(w, r, e, in, req)
		return
	}
	if !e.trySwap() {
		httpError(w, http.StatusConflict, fmt.Sprintf("reload or mutation of %q already in progress", name))
		return
	}
	defer e.releaseSwap()
	// Load the state under the swap lock: a concurrent reload cannot slip
	// between this read and the Store below.
	st := e.state.Load()
	eng, ok := st.eng.(*tpa.Engine)
	if !ok {
		httpError(w, http.StatusConflict,
			fmt.Sprintf("graph %q is served by a %T, which does not support dynamic updates", name, st.eng))
		return
	}
	start := time.Now()
	next, stats, err := eng.ApplyEdges(req.Add, req.Remove)
	if err != nil {
		// The previous state keeps serving; a failed mutation changes
		// nothing. Caller mistakes get 4xx, internal reindex failures 500.
		switch {
		case errors.Is(err, tpa.ErrBadEdge):
			httpError(w, http.StatusUnprocessableEntity, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	// An all-no-op batch returns the receiver unchanged: nothing to swap,
	// and the warm cache partition stays valid.
	if next != eng {
		info := st.info
		info.Nodes = stats.Nodes
		info.Edges = stats.Edges
		e.state.Store(h.newState(next, info))
	}
	e.reindexIters.Add(int64(stats.ReindexIters))
	writeJSON(w, map[string]interface{}{
		"graph":         name,
		"added":         stats.Added,
		"removed":       stats.Removed,
		"nodes":         stats.Nodes,
		"edges":         stats.Edges,
		"compacted":     stats.Compacted,
		"incremental":   stats.Incremental,
		"residual":      stats.Residual,
		"reindex_iters": stats.ReindexIters,
		"stale_bound":   stats.StaleBound,
		"mutations":     e.mutations.Add(1),
		"elapsed_ms":    float64(time.Since(start)) / float64(time.Millisecond),
	})
}
