package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"tpa"
	"tpa/internal/ingest"
)

// Durable ingestion: EnableIngest reroutes a graph's POST /edges through
// an internal/ingest pipeline — validate, append to a write-ahead log,
// coalesce in a bounded queue, apply in order on a single batcher
// goroutine, auto-compact — instead of the synchronous ApplyEdges path.
// Writers get 202 Accepted on admission (the batch is durable per the WAL
// fsync policy and will be applied in sequence order) and explicit
// backpressure when the queue is full: 429 + Retry-After under reject
// mode, a blocked request under block mode, a counted drop under drop
// mode. Graphs without EnableIngest keep the synchronous semantics
// unchanged.

// IngestConfig configures durable ingestion for one graph.
type IngestConfig struct {
	// Dir is the WAL directory (created if missing). Required.
	Dir string
	// WAL configures fsync policy and segment rotation.
	WAL ingest.WALOptions
	// Queue configures queue capacity, batching, backpressure mode, and
	// the auto-compaction trigger.
	Queue ingest.Options
	// SnapshotPath, when non-empty, is rewritten as a TPAM snapshot
	// (SaveSnapshotMmap: atomic, fsynced, and it keeps a shard plan) on
	// every auto-compaction before the WAL is truncated, so a restart
	// replays only the edges since the last compaction.
	SnapshotPath string
}

// swapTimeout bounds how long the ingest hooks wait for a concurrent
// reload to release the entry's swap lock before giving up on one
// attempt. The apply hook marks a timeout ingest.ErrRetryable, so the
// batcher re-runs the batch rather than recording an apply failure — a
// reload merely being slow must not strand a durably logged batch in the
// WAL.
const swapTimeout = 30 * time.Second

// EnableIngest switches the named graph's write path to a durable ingest
// pipeline. The graph must be registered and served by a *tpa.Engine.
// Call it during startup wiring, after Register/RegisterLoader (and after
// replaying any existing WAL into the engine — see tpa.Engine.ReplayWAL);
// once traffic is flowing the write path must not be switched. The
// returned pipeline is owned by the handler: Close shuts it down.
func (h *Handler) EnableIngest(name string, cfg IngestConfig) error {
	h.mu.RLock()
	e := h.graphs[name]
	h.mu.RUnlock()
	if e == nil {
		return fmt.Errorf("server: unknown graph %q", name)
	}
	if e.ingest.Load() != nil {
		return fmt.Errorf("server: ingest already enabled for %q", name)
	}
	if _, ok := e.state.Load().eng.(*tpa.Engine); !ok {
		return fmt.Errorf("server: graph %q is served by a %T, which does not support dynamic updates",
			name, e.state.Load().eng)
	}
	if cfg.Dir == "" {
		return fmt.Errorf("server: ingest for %q needs a WAL directory", name)
	}
	w, err := ingest.OpenWAL(cfg.Dir, cfg.WAL)
	if err != nil {
		return fmt.Errorf("server: opening WAL for %q: %w", name, err)
	}
	hooks := ingest.Hooks{
		Validate: func(adds, removes [][2]int) error {
			return validateEdges(e, adds, removes)
		},
		Apply: func(adds, removes [][2]int) error {
			return h.applyForIngest(e, adds, removes)
		},
		Compact: func() error {
			return h.compactForIngest(e, cfg.SnapshotPath)
		},
	}
	in, err := ingest.New(w, hooks, cfg.Queue)
	if err != nil {
		w.Close()
		return fmt.Errorf("server: starting ingest for %q: %w", name, err)
	}
	e.ingest.Store(in)
	return nil
}

// Close shuts down every graph's ingest pipeline: admission stops, the
// queues drain onto the engines, and the WALs are synced and closed. Safe
// to call more than once; the handler keeps serving queries afterwards.
func (h *Handler) Close() error {
	h.mu.RLock()
	entries := make([]*graphEntry, 0, len(h.graphs))
	for _, e := range h.graphs {
		entries = append(entries, e)
	}
	h.mu.RUnlock()
	var first error
	for _, e := range entries {
		if in := e.ingest.Load(); in != nil {
			if err := in.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// validateEdges vets a batch against the graph's current node range so a
// bad edge fails the request with 422 instead of being durably logged (a
// logged batch must replay cleanly forever).
func validateEdges(e *graphEntry, adds, removes [][2]int) error {
	eng, err := tpaEngine(e.name, e.state.Load())
	if err != nil {
		return err
	}
	n := eng.NumNodes()
	for _, set := range [][][2]int{adds, removes} {
		for _, edge := range set {
			if edge[0] < 0 || edge[0] >= n || edge[1] < 0 || edge[1] >= n {
				return fmt.Errorf("edge (%d,%d) references a node outside [0,%d): %w",
					edge[0], edge[1], n, tpa.ErrBadEdge)
			}
		}
	}
	return nil
}

// applyForIngest is the batcher's Apply hook: the same copy-on-write
// ApplyEdges + atomic state swap the synchronous path uses, serialized
// against reloads via the entry's swap flag.
func (h *Handler) applyForIngest(e *graphEntry, adds, removes [][2]int) error {
	if err := e.acquireSwap(swapTimeout); err != nil {
		return fmt.Errorf("%w: %v", ingest.ErrRetryable, err)
	}
	defer e.releaseSwap()
	st := e.state.Load()
	eng, err := tpaEngine(e.name, st)
	if err != nil {
		return err
	}
	next, stats, err := eng.ApplyEdges(adds, removes)
	if err != nil {
		return err
	}
	if next != eng {
		info := st.info
		info.Nodes = stats.Nodes
		info.Edges = stats.Edges
		e.state.Store(h.newState(next, info))
	}
	e.mutations.Add(1)
	e.countReindex(stats)
	return nil
}

// compactForIngest is the auto-compaction hook: rewrite the durable
// snapshot from the served engine, which ApplyEdges keeps compacted. The
// served state is not swapped, so the graph's cache partition stays warm.
// The ingest layer truncates the WAL only after this returns nil, so a
// crash at any point leaves a (snapshot, WAL) pair that replays to the
// same state.
func (h *Handler) compactForIngest(e *graphEntry, snapshotPath string) error {
	if snapshotPath == "" {
		return nil
	}
	// Serialized against reloads, like the apply hook.
	if err := e.acquireSwap(swapTimeout); err != nil {
		return err
	}
	defer e.releaseSwap()
	eng, err := tpaEngine(e.name, e.state.Load())
	if err != nil {
		return err
	}
	return eng.SaveSnapshotMmap(snapshotPath)
}

// tpaEngine returns the engine st serves. Only a test fake registered in
// place of a *tpa.Engine fails.
func tpaEngine(name string, st *engineState) (*tpa.Engine, error) {
	if eng, ok := st.eng.(*tpa.Engine); ok {
		return eng, nil
	}
	return nil, fmt.Errorf("graph %q no longer served by a tpa engine", name)
}

// ingestMutate serves POST /graphs/{name}/edges for an ingest-enabled
// graph: enqueue and acknowledge, don't wait for the reindex.
func (h *Handler) ingestMutate(w http.ResponseWriter, r *http.Request, e *graphEntry, in *ingest.Ingestor, req mutateRequest) {
	res, err := in.Enqueue(r.Context(), req.Add, req.Remove)
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("ingest queue for %q at capacity (%d pending)", e.name, in.Depth()))
		return
	case errors.Is(err, ingest.ErrBatchTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	case errors.Is(err, tpa.ErrBadEdge):
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	case errors.Is(err, ingest.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "ingest pipeline shutting down")
		return
	case r.Context().Err() != nil:
		// The writer gave up while blocked on a full queue.
		httpError(w, http.StatusServiceUnavailable, "request canceled while waiting for queue capacity")
		return
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	st := in.Stats()
	w.Header().Set("Content-Type", "application/json")
	if res.Dropped {
		// Drop mode discarded the event: say so in the status code, not
		// just the body, or clients keying off 2xx would read a shed write
		// as durably accepted. No Retry-After — unlike reject mode, the
		// event is gone and retrying is the client's choice.
		w.WriteHeader(http.StatusTooManyRequests)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	writeJSON(w, map[string]interface{}{
		"graph":       e.name,
		"accepted":    !res.Dropped,
		"dropped":     res.Dropped,
		"seq":         res.Seq,
		"queue_depth": st.Depth,
		"wal_records": st.WALRecords,
	})
}

// ingestJSON summarizes a graph's ingest pipeline for /graphs/{name}/stats.
func ingestJSON(in *ingest.Ingestor) map[string]interface{} {
	st := in.Stats()
	return map[string]interface{}{
		"mode":            in.Mode().String(),
		"queue_depth":     st.Depth,
		"queue_capacity":  st.Capacity,
		"enqueued":        st.Enqueued,
		"dropped":         st.Dropped,
		"rejected":        st.Rejected,
		"applied_batches": st.AppliedBatches,
		"applied_edges":   st.AppliedEdges,
		"apply_errors":    st.ApplyErrors,
		"compactions":     st.Compactions,
		"compact_errors":  st.CompactErrors,
		"compact_blocked": st.CompactBlocked,
		"wal_lag_bytes":   st.WALLagBytes,
		"wal_records":     st.WALRecords,
		"last_seq":        st.LastSeq,
	}
}
