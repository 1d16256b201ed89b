package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpa"
	"tpa/internal/ingest"
)

// ingestHandler builds a single-graph handler with durable ingestion
// enabled, returning the handler and the WAL directory.
func ingestHandler(t *testing.T, queue ingest.Options) (*Handler, string) {
	t.Helper()
	eng := testEngine(t)
	h := NewWith(eng, Info{Nodes: 200, Edges: 1800, Name: "test"}, DefaultOptions())
	dir := t.TempDir()
	if err := h.EnableIngest("default", IngestConfig{
		Dir:   dir,
		WAL:   ingest.WALOptions{Fsync: ingest.FsyncOff},
		Queue: queue,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h, dir
}

// waitIngestOn polls /graphs/{name}/stats until cond is satisfied.
func waitIngestOn(t *testing.T, h *Handler, name string, cond func(ingest map[string]interface{}) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, h, "/graphs/"+name+"/stats")
		if ing, ok := body["ingest"].(map[string]interface{}); ok && cond(ing) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("ingest condition not reached within deadline")
}

func waitIngest(t *testing.T, h *Handler, cond func(ingest map[string]interface{}) bool) {
	t.Helper()
	waitIngestOn(t, h, "default", cond)
}

func TestIngestMutateAccepted(t *testing.T) {
	h, _ := ingestHandler(t, ingest.Options{MaxBatchAge: time.Millisecond})
	rec, body := postJSON(t, h, "/graphs/default/edges", `{"add":[[1,2],[3,4]]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("code = %d, want 202: %s", rec.Code, rec.Body.String())
	}
	if body["accepted"] != true || body["seq"].(float64) < 1 {
		t.Fatalf("body = %v", body)
	}
	// The batcher applies asynchronously: the mutation counter and the
	// edge count advance shortly after.
	waitIngest(t, h, func(ing map[string]interface{}) bool {
		return ing["applied_edges"].(float64) >= 2
	})
	_, stats := get(t, h, "/graphs/default/stats")
	if stats["mutations"].(float64) < 1 {
		t.Fatalf("mutations = %v, want >= 1", stats["mutations"])
	}
}

func TestIngestMutateBadEdge(t *testing.T) {
	h, _ := ingestHandler(t, ingest.Options{})
	rec, _ := postJSON(t, h, "/graphs/default/edges", `{"add":[[1,100000]]}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d, want 422: %s", rec.Code, rec.Body.String())
	}
	// The bad batch must not have been logged.
	_, body := get(t, h, "/graphs/default/stats")
	ing := body["ingest"].(map[string]interface{})
	if ing["wal_records"].(float64) != 0 {
		t.Fatalf("bad edge reached the WAL: %v", ing)
	}
}

func TestIngestRejectModeEndToEnd(t *testing.T) {
	// A tiny queue in reject mode, saturated by a write burst, must answer
	// 429 with Retry-After — observable backpressure end-to-end.
	h, _ := ingestHandler(t, ingest.Options{
		Mode:      ingest.ModeReject,
		QueueSize: 1,
		// Slow the drain so the burst actually collides with capacity.
		MaxBatchAge:   time.Millisecond,
		MaxBatchEdges: 1,
	})
	var got429 *httptest.ResponseRecorder
	for i := 0; i < 500; i++ {
		rec, _ := postJSON(t, h, "/graphs/default/edges",
			fmt.Sprintf(`{"add":[[%d,%d]]}`, i%200, (i+1)%200))
		if rec.Code == http.StatusTooManyRequests {
			got429 = rec
			break
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
		}
	}
	if got429 == nil {
		t.Skip("queue drained faster than the burst; nothing rejected")
	}
	if got429.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// The rejection is visible on /metrics.
	samples, _ := scrapeMetrics(t, h)
	var rejected float64
	for _, s := range samples {
		if s.name == "tpa_ingest_rejected_total" && s.labels["graph"] == "default" {
			rejected = s.value
		}
	}
	if rejected < 1 {
		t.Fatalf("tpa_ingest_rejected_total = %v, want >= 1", rejected)
	}
}

func TestIngestMetricsFamilies(t *testing.T) {
	h, _ := ingestHandler(t, ingest.Options{MaxBatchAge: time.Millisecond})
	postJSON(t, h, "/graphs/default/edges", `{"add":[[5,6]]}`)
	waitIngest(t, h, func(ing map[string]interface{}) bool {
		return ing["applied_edges"].(float64) >= 1
	})
	samples, types := scrapeMetrics(t, h)
	// Every ingest family must be declared (the golden test covers the
	// full surface; this one checks the samples carry real values).
	want := map[string]float64{
		"tpa_ingest_queue_capacity":      1024,
		"tpa_ingest_enqueued_total":      1,
		"tpa_ingest_applied_edges_total": 1,
	}
	got := map[string]float64{}
	for _, s := range samples {
		if s.labels["graph"] == "default" {
			got[s.name] = s.value
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	for _, name := range []string{"tpa_ingest_queue_depth", "tpa_ingest_wal_lag_bytes", "tpa_ingest_compactions_total"} {
		if _, ok := types[name]; !ok {
			t.Errorf("family %s not declared", name)
		}
		if _, ok := got[name]; !ok {
			t.Errorf("family %s has no sample for the ingest-enabled graph", name)
		}
	}
}

func TestIngestAutoCompactionRewritesSnapshot(t *testing.T) {
	eng := testEngine(t)
	h := NewWith(eng, Info{Nodes: 200, Edges: 1800, Name: "test"}, DefaultOptions())
	dir := t.TempDir()
	snap := filepath.Join(dir, "test.tpam")
	if err := h.EnableIngest("default", IngestConfig{
		Dir: filepath.Join(dir, "wal"),
		WAL: ingest.WALOptions{Fsync: ingest.FsyncOff},
		Queue: ingest.Options{
			MaxBatchAge:     time.Millisecond,
			CompactWALBytes: 1, // compact after every flush
		},
		SnapshotPath: snap,
	}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rec, _ := postJSON(t, h, "/graphs/default/edges", `{"add":[[7,8],[8,9]]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("code = %d", rec.Code)
	}
	waitIngest(t, h, func(ing map[string]interface{}) bool {
		return ing["compactions"].(float64) >= 1
	})
	// The snapshot was rewritten and loads to the mutated edge count, and
	// the WAL was truncated to (at most) a fresh segment header.
	loaded, err := tpa.LoadSnapshotFile(snap)
	if err != nil {
		t.Fatalf("compacted snapshot unreadable: %v", err)
	}
	if loaded.NumEdges() == 1800 {
		t.Fatal("snapshot does not include the applied mutations")
	}
	_, body := get(t, h, "/graphs/default/stats")
	ing := body["ingest"].(map[string]interface{})
	if ing["wal_records"].(float64) != 0 && ing["wal_lag_bytes"].(float64) > 4096 {
		t.Fatalf("WAL not truncated after compaction: %v", ing)
	}
}

// TestIngestAutoCompactionKeepsCache: ApplyEdges leaves every engine
// compacted, so an auto-compaction only rewrites the snapshot and never
// swaps the served state — a warm cache partition survives it. The ingest
// apply path also feeds the reindex work and head-skip counters.
func TestIngestAutoCompactionKeepsCache(t *testing.T) {
	base := testEngine(t)
	var absent [][2]int
	for u := 0; len(absent) < 2; u++ {
		if v := (u + 101) % 200; !base.Graph().HasEdge(u, v) {
			absent = append(absent, [2]int{u, v})
		}
	}
	// Serve an engine that has already taken a write, as a live one has.
	eng, _, err := base.ApplyEdges(absent[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(eng, Info{Nodes: 200, Edges: eng.NumEdges(), Name: "test"}, DefaultOptions())
	dir := t.TempDir()
	snap := filepath.Join(dir, "test.tpam")
	if err := h.EnableIngest("default", IngestConfig{
		Dir:          filepath.Join(dir, "wal"),
		WAL:          ingest.WALOptions{Fsync: ingest.FsyncOff},
		Queue:        ingest.Options{MaxBatchAge: time.Millisecond, CompactWALBytes: 1},
		SnapshotPath: snap,
	}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	get(t, h, "/topk?seed=3&k=5")
	get(t, h, "/topk?seed=3&k=5")
	if hits := graphMetric(t, h, "tpa_cache_hits_total", "default"); hits != 1 {
		t.Fatalf("cache hits = %v before compaction, want 1", hits)
	}
	// Re-adding the served edge is a no-op batch, but it is logged, so it
	// still pushes the WAL over the threshold.
	body := fmt.Sprintf(`{"add":[[%d,%d]]}`, absent[0][0], absent[0][1])
	if rec, _ := postJSON(t, h, "/graphs/default/edges", body); rec.Code != http.StatusAccepted {
		t.Fatalf("code = %d", rec.Code)
	}
	waitIngest(t, h, func(ing map[string]interface{}) bool {
		return ing["compactions"].(float64) >= 1
	})
	get(t, h, "/topk?seed=3&k=5")
	if hits := graphMetric(t, h, "tpa_cache_hits_total", "default"); hits != 2 {
		t.Fatalf("cache hits = %v after compaction, want 2: the compaction dropped the warm partition", hits)
	}
	loaded, err := tpa.LoadSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != eng.NumEdges() {
		t.Fatalf("snapshot has %d edges, want %d", loaded.NumEdges(), eng.NumEdges())
	}
	if iters := graphMetric(t, h, "tpa_graph_reindex_iters_total", "default"); iters != 0 {
		t.Fatalf("no-op batch counted %v reindex iterations", iters)
	}
	if skips := graphMetric(t, h, "tpa_graph_head_skips_total", "default"); skips != 0 {
		t.Fatalf("no-op batch counted %v head skips", skips)
	}
	body = fmt.Sprintf(`{"add":[[%d,%d]]}`, absent[1][0], absent[1][1])
	if rec, _ := postJSON(t, h, "/graphs/default/edges", body); rec.Code != http.StatusAccepted {
		t.Fatalf("code = %d", rec.Code)
	}
	waitIngest(t, h, func(ing map[string]interface{}) bool {
		return ing["applied_edges"].(float64) >= 2
	})
	// The served engine's write left head state, so this one-edge write
	// skips the head: one application, one skip.
	if iters := graphMetric(t, h, "tpa_graph_reindex_iters_total", "default"); iters != 1 {
		t.Fatalf("tpa_graph_reindex_iters_total = %v after a skipped write, want 1", iters)
	}
	if skips := graphMetric(t, h, "tpa_graph_head_skips_total", "default"); skips != 1 {
		t.Fatalf("tpa_graph_head_skips_total = %v after a skipped write, want 1", skips)
	}
}

func TestIngestSurvivesReloadConflict(t *testing.T) {
	// The apply hook must wait out a transient reload instead of dropping
	// a durably logged batch.
	eng := testEngine(t)
	h := NewRegistry(DefaultOptions())
	load := func() (Engine, Info, error) { return eng, Info{Nodes: 200, Edges: 1800}, nil }
	if err := h.RegisterLoader("g", load); err != nil {
		t.Fatal(err)
	}
	if err := h.EnableIngest("g", IngestConfig{
		Dir:   t.TempDir(),
		WAL:   ingest.WALOptions{Fsync: ingest.FsyncOff},
		Queue: ingest.Options{MaxBatchAge: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			postJSON(t, h, "/graphs/g/reload", "")
		}
	}()
	for i := 0; i < 20; i++ {
		rec, _ := postJSON(t, h, "/graphs/g/edges",
			fmt.Sprintf(`{"add":[[%d,%d]]}`, i, i+1))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("write %d: code = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	<-done
	// Note reloads discard applied mutations by design; the point is that
	// no enqueue failed and the pipeline stayed healthy.
	waitIngestOn(t, h, "g", func(ing map[string]interface{}) bool {
		return ing["queue_depth"].(float64) == 0
	})
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEnableIngestErrors(t *testing.T) {
	h := testHandler(t)
	if err := h.EnableIngest("nope", IngestConfig{Dir: t.TempDir()}); err == nil {
		t.Error("unknown graph accepted")
	}
	if err := h.EnableIngest("default", IngestConfig{}); err == nil {
		t.Error("missing WAL dir accepted")
	}
	if err := h.EnableIngest("default", IngestConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := h.EnableIngest("default", IngestConfig{Dir: t.TempDir()}); err == nil {
		t.Error("double EnableIngest accepted")
	}
	h.Close()
}

func TestIngestDropModeSignalsStatus(t *testing.T) {
	// A drop-mode discard must be visible in the status code (429), not
	// only in the body: clients keying off 2xx would otherwise read a shed
	// write as durably accepted. Unlike reject mode there is no
	// Retry-After — the event is gone, retrying is the client's choice.
	h, _ := ingestHandler(t, ingest.Options{
		Mode:          ingest.ModeDrop,
		QueueSize:     1,
		MaxBatchAge:   time.Millisecond,
		MaxBatchEdges: 1,
	})
	var drop *httptest.ResponseRecorder
	var body map[string]interface{}
	for i := 0; i < 500; i++ {
		rec, b := postJSON(t, h, "/graphs/default/edges",
			fmt.Sprintf(`{"add":[[%d,%d]]}`, i%200, (i+1)%200))
		if rec.Code == http.StatusTooManyRequests {
			drop, body = rec, b
			break
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
		}
	}
	if drop == nil {
		t.Skip("queue drained faster than the burst; nothing dropped")
	}
	if body["dropped"] != true || body["accepted"] != false {
		t.Fatalf("drop body = %v", body)
	}
	if drop.Header().Get("Retry-After") != "" {
		t.Fatal("drop-mode 429 must not promise a retry window")
	}
}

func TestIngestOversizedBatch413(t *testing.T) {
	// A batch over the WAL record limit is refused with 413 before it is
	// admitted or logged — acknowledged-then-unreplayable is the one
	// combination the durable path must never produce.
	h, _ := ingestHandler(t, ingest.Options{})
	var sb strings.Builder
	sb.WriteString(`{"add":[`)
	for i := 0; i <= ingest.MaxRecordEdges; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("[1,2]")
	}
	sb.WriteString(`]}`)
	rec, _ := postJSON(t, h, "/graphs/default/edges", sb.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	_, body := get(t, h, "/graphs/default/stats")
	ing := body["ingest"].(map[string]interface{})
	if ing["wal_records"].(float64) != 0 {
		t.Fatalf("oversized batch reached the WAL: %v", ing)
	}
}

// TestIngestAppliesToMappedEngine: a graph served from a memory-mapped
// 2-shard snapshot takes durable writes like any other. The write is
// accepted, applied once without an apply error, and /topk then answers
// what the written engine answers.
func TestIngestAppliesToMappedEngine(t *testing.T) {
	g := tpa.RandomSBMGraph(200, 4, 5, 0.9, 9)
	built, err := tpa.NewSharded(g, 2, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := built.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := tpa.LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	h := NewWith(mapped, Info{Nodes: 200, Edges: g.NumEdges(), Name: "g"}, DefaultOptions())
	if err := h.EnableIngest("default", IngestConfig{
		Dir:   t.TempDir(),
		WAL:   ingest.WALOptions{Fsync: ingest.FsyncOff},
		Queue: ingest.Options{MaxBatchAge: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	topk := func() string {
		t.Helper()
		rec, body := get(t, h, "/topk?seed=3&k=10")
		if rec.Code != http.StatusOK {
			t.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
		}
		return fmt.Sprint(body["results"])
	}
	before := topk()
	edge := [][2]int{{3, 150}}
	if g.HasEdge(3, 150) {
		t.Fatal("test premise broken: edge 3→150 exists")
	}
	if rec, _ := postJSON(t, h, "/graphs/default/edges", `{"add":[[3,150]]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("code = %d, want 202: %s", rec.Code, rec.Body.String())
	}
	waitIngest(t, h, func(ing map[string]interface{}) bool {
		return ing["applied_batches"].(float64)+ing["apply_errors"].(float64) >= 1
	})
	_, stats := get(t, h, "/graphs/default/stats")
	if ing := stats["ingest"].(map[string]interface{}); ing["applied_batches"] != 1.0 || ing["apply_errors"] != 0.0 {
		t.Fatalf("ingest after one write: %v", ing)
	}

	written, _, err := built.ApplyEdges(edge, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := written.TopK(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := make([]interface{}, len(want))
	for i, e := range want {
		wantJSON[i] = map[string]interface{}{"node": float64(e.Index), "score": e.Score}
	}
	after := topk()
	if after == before || after != fmt.Sprint(wantJSON) {
		t.Fatalf("/topk after the write:\n got %s\nwant %s\n(before %s)", after, fmt.Sprint(wantJSON), before)
	}
}

// TestWritePathsAgree sends one batch sequence through synchronous POST
// /edges on one handler and through the ingest batcher on another, one
// applied batch at a time. Both paths run the same write step, so the
// answers must be bit-identical and the write counters equal.
func TestWritePathsAgree(t *testing.T) {
	batches := []string{
		`{"add":[[0,7],[3,150],[40,41]]}`,
		`{"add":[[5,6],[90,12]],"remove":[[0,7]]}`,
		`{"add":[[3,150],[40,41]]}`, // already present: a no-op write
		`{"add":[[1,2],[2,3],[7,9],[9,11],[11,1]]}`,
		`{"remove":[[90,12]]}`,
	}
	var big []string
	for u := 0; u < 200; u += 2 {
		big = append(big, fmt.Sprintf("[%d,%d]", u, (u*37+11)%200))
	}
	batches = append(batches, `{"add":[`+strings.Join(big, ",")+`]}`, `{"add":[[8,9]]}`)

	sync := testHandler(t)
	durable, _ := ingestHandler(t, ingest.Options{MaxBatchAge: time.Millisecond})
	for i, b := range batches {
		if rec, _ := postJSON(t, sync, "/graphs/default/edges", b); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: synchronous write: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec, _ := postJSON(t, durable, "/graphs/default/edges", b); rec.Code != http.StatusAccepted {
			t.Fatalf("batch %d: durable write: %d %s", i, rec.Code, rec.Body.String())
		}
		// One batch per apply, as the synchronous path writes them.
		waitIngest(t, durable, func(ing map[string]interface{}) bool {
			return ing["applied_batches"].(float64) >= float64(i+1)
		})
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/topk?seed=0&k=10", "/topk?seed=5&k=10", "/topk?seed=150&k=10", "/topk?seed=199&k=10"} {
		a, _ := get(t, sync, path)
		b, _ := get(t, durable, path)
		if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
			t.Errorf("%s: synchronous %d %s, durable %d %s", path, a.Code, a.Body, b.Code, b.Body)
		}
	}
	_, sa := get(t, sync, "/graphs/default/stats")
	_, sb := get(t, durable, "/graphs/default/stats")
	for _, key := range []string{"stale_bound", "mutations"} {
		if sa[key] != sb[key] {
			t.Errorf("stats %s: synchronous %v, durable %v", key, sa[key], sb[key])
		}
	}
	if sa["mutations"] != float64(len(batches)) {
		t.Errorf("mutations = %v, want %d", sa["mutations"], len(batches))
	}
	for _, family := range []string{"tpa_graph_mutations_total", "tpa_graph_reindex_iters_total", "tpa_graph_head_skips_total"} {
		a, b := graphMetric(t, sync, family, "default"), graphMetric(t, durable, family, "default")
		if a != b || a == 0 {
			t.Errorf("%s: synchronous %v, durable %v; want equal and non-zero", family, a, b)
		}
	}
}
