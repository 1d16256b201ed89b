package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"tpa/internal/ingest"
)

// ingestStats is the snapshot type the ingest metric closures read.
type ingestStats = ingest.Stats

// GET /metrics: Prometheus text exposition (version 0.0.4), hand-rolled so
// the server stays dependency-free. This is the scrape surface dashboards
// and the CI SLO gate build on; metric names and types are pinned by a
// golden test (prometheus_test.go) — renaming one is a breaking change to
// every dashboard, treat it like an API removal.
//
// The JSON /stats endpoint remains for humans and scripts; /metrics is the
// machine surface: counters are monotonic since process start, latency is a
// cumulative histogram per endpoint, and every per-graph series carries a
// graph label.

// promWriter accumulates exposition lines with the "# TYPE before samples"
// discipline the format requires.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "%s%s %s\n", name, labels, formatPromValue(v))
}

// formatPromValue renders integers without an exponent and floats with full
// precision, matching what Prometheus' own client emits.
func formatPromValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabel renders one label pair with the required escaping. Graph names
// are restricted to [A-Za-z0-9._-] at registration, but escape anyway:
// exposition validity must not depend on a validation elsewhere.
func promLabel(key, val string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return key + `="` + r.Replace(val) + `"`
}

// metrics serves GET /metrics. Like /stats it bypasses the concurrency
// limiter: a saturated server must remain observable.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter

	// Per-endpoint request counters.
	names := make([]string, 0, len(h.endpoints))
	for name := range h.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	p.header("tpa_requests_total", "Requests received per query endpoint, including shed requests.", "counter")
	for _, name := range names {
		p.sample("tpa_requests_total", promLabel("endpoint", name), float64(h.endpoints[name].requests.Load()))
	}
	p.header("tpa_request_errors_total", "Responses with status >= 400 per endpoint, including shed requests.", "counter")
	for _, name := range names {
		p.sample("tpa_request_errors_total", promLabel("endpoint", name), float64(h.endpoints[name].errors.Load()))
	}
	p.header("tpa_requests_shed_total", "Requests rejected with 503 by the concurrency limiter, per endpoint.", "counter")
	for _, name := range names {
		p.sample("tpa_requests_shed_total", promLabel("endpoint", name), float64(h.endpoints[name].rejected.Load()))
	}
	p.header("tpa_partial_answers_total", "200 responses carrying a deadline-partial (reduced-S) answer, per endpoint.", "counter")
	for _, name := range names {
		p.sample("tpa_partial_answers_total", promLabel("endpoint", name), float64(h.endpoints[name].partial.Load()))
	}

	// Per-endpoint latency histograms (completed requests only; shed
	// requests never execute a query and would poison the distribution).
	p.header("tpa_request_duration_seconds", "Handler latency of completed requests, per endpoint.", "histogram")
	for _, name := range names {
		st := h.endpoints[name]
		el := promLabel("endpoint", name)
		for i, le := range latencyBuckets {
			p.sample("tpa_request_duration_seconds_bucket",
				el+","+promLabel("le", strconv.FormatFloat(le, 'g', -1, 64)),
				float64(st.buckets[i].Load()))
		}
		completed := st.completed()
		p.sample("tpa_request_duration_seconds_bucket", el+","+promLabel("le", "+Inf"), float64(completed))
		p.sample("tpa_request_duration_seconds_sum", el, float64(st.totalNS.Load())/1e9)
		p.sample("tpa_request_duration_seconds_count", el, float64(completed))
	}

	// Global serving gauges.
	p.header("tpa_in_flight_requests", "Query requests currently executing.", "gauge")
	p.sample("tpa_in_flight_requests", "", float64(h.inFlight.Load()))
	p.header("tpa_max_in_flight", "Configured concurrency limit (0 = unlimited).", "gauge")
	p.sample("tpa_max_in_flight", "", float64(h.opts.MaxInFlight))

	// Per-graph serving state.
	h.mu.RLock()
	entries := make([]*graphEntry, 0, len(h.graphs))
	for _, e := range h.graphs {
		entries = append(entries, e)
	}
	h.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	graphCounter := func(name, help string, get func(e *graphEntry) float64) {
		p.header(name, help, "counter")
		for _, e := range entries {
			p.sample(name, promLabel("graph", e.name), get(e))
		}
	}
	graphCounter("tpa_graph_queries_total", "Query requests routed to each graph.",
		func(e *graphEntry) float64 { return float64(e.queries.Load()) })
	graphCounter("tpa_graph_reloads_total", "Completed hot reloads per graph.",
		func(e *graphEntry) float64 { return float64(e.reloads.Load()) })
	graphCounter("tpa_graph_mutations_total", "Completed edge-mutation batches per graph.",
		func(e *graphEntry) float64 { return float64(e.mutations.Load()) })
	graphCounter("tpa_graph_reindex_iters_total", "Propagation steps (dense operator applications) spent reindexing after edge mutations, per graph.",
		func(e *graphEntry) float64 { return float64(e.reindexIters.Load()) })

	graphGauge := func(name, help string, get func(st *engineState) float64) {
		p.header(name, help, "gauge")
		for _, e := range entries {
			p.sample(name, promLabel("graph", e.name), get(e.state.Load()))
		}
	}
	graphGauge("tpa_graph_nodes", "Node count of each served graph.",
		func(st *engineState) float64 { return float64(st.info.Nodes) })
	graphGauge("tpa_graph_edges", "Edge count of each served graph.",
		func(st *engineState) float64 { return float64(st.info.Edges) })
	graphGauge("tpa_graph_index_bytes", "Preprocessed index size per graph.",
		func(st *engineState) float64 { return float64(st.eng.IndexBytes()) })
	graphGauge("tpa_graph_error_bound", "L1 error bound per graph: Theorem-2 2(1-c)^S plus the staleness bound the last reindex left after edge writes.",
		func(st *engineState) float64 { return st.eng.ErrorBound() })

	// Shard and storage layout (sharded / memory-mapped engines). Shard
	// count and storage split are reported for every graph (1 shard / all
	// heap when the engine has no layout to speak of); the per-shard and
	// per-kernel series carry a shard or kernel label and appear only for
	// actually sharded engines, under always-present family headers.
	graphGauge("tpa_shard_count", "Scatter-gather shards the graph's engine fans queries across (1 = unsharded).",
		func(st *engineState) float64 {
			if se, ok := st.eng.(shardInfo); ok {
				return float64(se.NumShards())
			}
			return 1
		})
	eachSharded := func(fn func(graphLabel string, se shardInfo)) {
		for _, e := range entries {
			if se, ok := e.state.Load().eng.(shardInfo); ok && se.NumShards() > 1 {
				fn(promLabel("graph", e.name), se)
			}
		}
	}
	shardSeries := func(name, help string, get func(nodes int, edges int64) float64) {
		p.header(name, help, "gauge")
		eachSharded(func(gl string, se shardInfo) {
			nodes, edges := se.ShardLayout()
			for i := range nodes {
				p.sample(name, gl+","+promLabel("shard", strconv.Itoa(i)), get(nodes[i], edges[i]))
			}
		})
	}
	shardSeries("tpa_shard_nodes", "Nodes per shard of each sharded graph.",
		func(nodes int, _ int64) float64 { return float64(nodes) })
	shardSeries("tpa_shard_edges", "Out-edges per shard of each sharded graph.",
		func(_ int, edges int64) float64 { return float64(edges) })
	// Which kernel answered: a sharded engine pushes sparse inputs serially
	// and fans the pull kernel out across shards for dense ones, so a pull
	// count that rises with query traffic marks a graph whose queries go
	// dense. Preprocessing's (dense) applications are included.
	p.header("tpa_shard_matvec_total", "Operator applications of each sharded graph by the kernel that answered: push (sparse input, serial) or pull (dense input, fanned out across shards).", "counter")
	eachSharded(func(gl string, se shardInfo) {
		push, pull := se.ShardMatvecs()
		p.sample("tpa_shard_matvec_total", gl+","+promLabel("kernel", "push"), float64(push))
		p.sample("tpa_shard_matvec_total", gl+","+promLabel("kernel", "pull"), float64(pull))
	})
	storageGauge := func(name, help string, get func(mapped, heap int64) float64) {
		p.header(name, help, "gauge")
		for _, e := range entries {
			var mapped, heap int64
			if se, ok := e.state.Load().eng.(storageInfo); ok {
				mapped, heap = se.StorageBytes()
			}
			p.sample(name, promLabel("graph", e.name), get(mapped, heap))
		}
	}
	storageGauge("tpa_shard_mmap_bytes", "Engine storage served from a file mapping (shared page cache), per graph.",
		func(mapped, _ int64) float64 { return float64(mapped) })
	storageGauge("tpa_shard_heap_bytes", "Engine storage on the private heap, per graph.",
		func(_, heap int64) float64 { return float64(heap) })

	// Per-graph cache counters. Graphs without a cache partition report
	// zero capacity rather than omitting the series: absent series make
	// rate() queries silently vanish.
	cacheStat := func(name, help, typ string, get func(hits, misses int64, entries, capacity int) float64) {
		p.header(name, help, typ)
		for _, e := range entries {
			var hits, misses int64
			var n, capacity int
			if c := e.state.Load().cache; c != nil {
				hits, misses, n, capacity = c.counts()
			}
			p.sample(name, promLabel("graph", e.name), get(hits, misses, n, capacity))
		}
	}
	cacheStat("tpa_cache_hits_total", "Top-k cache hits per graph.", "counter",
		func(hits, _ int64, _, _ int) float64 { return float64(hits) })
	cacheStat("tpa_cache_misses_total", "Top-k cache misses per graph.", "counter",
		func(_, misses int64, _, _ int) float64 { return float64(misses) })
	cacheStat("tpa_cache_entries", "Top-k cache occupancy per graph.", "gauge",
		func(_, _ int64, n, _ int) float64 { return float64(n) })
	cacheStat("tpa_cache_capacity", "Top-k cache capacity per graph (0 = caching disabled).", "gauge",
		func(_, _ int64, _, capacity int) float64 { return float64(capacity) })

	// Durable-ingest pipeline state (EnableIngest). Family headers are
	// always emitted so dashboards see a stable surface; samples appear
	// only for graphs with ingest enabled.
	ingestMetric := func(name, help, typ string, get func(st ingestStats) float64) {
		p.header(name, help, typ)
		for _, e := range entries {
			in := e.ingest.Load()
			if in == nil {
				continue
			}
			p.sample(name, promLabel("graph", e.name), get(in.Stats()))
		}
	}
	ingestMetric("tpa_ingest_queue_depth", "Admitted edge events awaiting application, per graph.", "gauge",
		func(st ingestStats) float64 { return float64(st.Depth) })
	ingestMetric("tpa_ingest_queue_capacity", "Ingest queue capacity, per graph.", "gauge",
		func(st ingestStats) float64 { return float64(st.Capacity) })
	ingestMetric("tpa_ingest_enqueued_total", "Edge events admitted to the ingest queue, per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.Enqueued) })
	ingestMetric("tpa_ingest_dropped_total", "Edge events discarded by drop-mode backpressure, per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.Dropped) })
	ingestMetric("tpa_ingest_rejected_total", "Edge events refused with 429 by reject-mode backpressure, per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.Rejected) })
	ingestMetric("tpa_ingest_applied_edges_total", "Edges (adds+removes) applied by the ingest batcher, per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.AppliedEdges) })
	ingestMetric("tpa_ingest_apply_errors_total", "Failed batch applications, per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.ApplyErrors) })
	ingestMetric("tpa_ingest_wal_lag_bytes", "Live write-ahead-log volume a restart would replay, per graph.", "gauge",
		func(st ingestStats) float64 { return float64(st.WALLagBytes) })
	ingestMetric("tpa_ingest_compactions_total", "Completed auto-compactions (snapshot rewrite + WAL truncation), per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.Compactions) })
	ingestMetric("tpa_ingest_compact_errors_total", "Failed auto-compaction attempts (WAL kept), per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.CompactErrors) })
	ingestMetric("tpa_ingest_compact_blocked_total", "Auto-compactions refused because an apply failure left the WAL ahead of the engine (restart to replay), per graph.", "counter",
		func(st ingestStats) float64 { return float64(st.CompactBlocked) })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(p.b.String()))
}
