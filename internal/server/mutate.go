package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"tpa"
)

// Dynamic graph updates: POST /graphs/{name}/edges applies an edge batch to
// a served graph. Both write paths, this synchronous one and the ingest
// batcher (EnableIngest), run the batch through applyWrite: it builds a
// whole new engine via tpa.Engine.ApplyEdges (copy-on-write: the old engine
// keeps serving while the batch is applied and the index reindexed) and
// then swaps it in behind the same atomic state pointer reloads use, so
// concurrent queries are never dropped and never observe a half-mutated
// engine. The graph's cache partition is replaced along with the engine —
// no stale answer survives a write. Writes and reloads of one graph
// serialize on the entry's swap slot; a POST /graphs/{name}/reload rebuilds
// from the registered loader and therefore discards writes applied since.

// mutateRequest is the POST /graphs/{name}/edges body: edge batches as
// [source, destination] pairs. Adds are applied before removes.
type mutateRequest struct {
	Add    [][2]int `json:"add"`
	Remove [][2]int `json:"remove"`
}

// errConflict marks a write or reload the graph turns away untried because
// another one held the swap slot past the caller's wait. HTTP answers it
// 409; the ingest batcher retries it.
var errConflict = errors.New("conflict")

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
	var req mutateRequest
	if !decodeEdges(w, r, &req) {
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
	start := time.Now()
	stats, mutations, err := h.applyWrite(e, 0, req.Add, req.Remove)
	switch {
	case err == nil:
	case errors.Is(err, errConflict):
		httpError(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, tpa.ErrBadEdge):
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, map[string]interface{}{
		"graph":     name,
		"added":     stats.Added,
		"removed":   stats.Removed,
		"nodes":     stats.Nodes,
		"edges":     stats.Edges,
		"compacted": stats.Compacted,
		// No write re-preprocesses; the key stays for clients that read it.
		"incremental":   true,
		"residual":      stats.Residual,
		"head_iters":    stats.HeadIters,
		"reindex_iters": stats.ReindexIters,
		"stale_bound":   stats.StaleBound,
		"mutations":     mutations,
		"elapsed_ms":    float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// applyWrite is the one write step of both write paths. It claims e's swap
// slot, waiting up to wait for it, applies the batch to the served engine
// copy-on-write, swaps the written engine in when the batch changed the
// graph, and counts the write. It returns the write's stats and the graph's
// write count including it. A failed write changes nothing: the previous
// state keeps serving.
func (h *Handler) applyWrite(e *graphEntry, wait time.Duration, adds, removes [][2]int) (tpa.MutationStats, int64, error) {
	if err := e.acquireSwap(wait); err != nil {
		return tpa.MutationStats{}, 0, err
	}
	defer e.releaseSwap()
	// Load the state under the swap slot: a concurrent reload cannot slip
	// between this read and the Store below.
	st := e.state.Load()
	next, stats, err := st.eng.ApplyEdges(adds, removes)
	if err != nil {
		return stats, 0, err
	}
	// An all-no-op batch returns the receiver unchanged: nothing to swap,
	// and the warm cache partition stays valid.
	if next != st.eng {
		info := st.info
		info.Nodes = stats.Nodes
		info.Edges = stats.Edges
		e.state.Store(h.newState(next, info))
	}
	e.reindexIters.Add(int64(stats.ReindexIters))
	if stats.Compacted && stats.HeadIters == 0 {
		e.headSkips.Add(1)
	}
	return stats, e.mutations.Add(1), nil
}
