package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpa"
	"tpa/internal/ingest"
	"tpa/internal/server"
)

// TestBuildShardsNeedsMmap: a .tpas snapshot cannot hold a shard plan, so
// `tpad build -shards N` without -mmap fails up front — before it even
// reads the (here missing) edge list — and names the flag it needs.
func TestBuildShardsNeedsMmap(t *testing.T) {
	out := filepath.Join(t.TempDir(), "s.tpas")
	err := cmdBuild([]string{"-graph", filepath.Join(t.TempDir(), "missing.tsv"), "-o", out, "-shards", "2"})
	if err == nil || !strings.Contains(err.Error(), "-mmap") {
		t.Fatalf("build -shards 2 without -mmap: %v, want an error naming -mmap", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused build left %s behind (%v)", out, err)
	}
}

// serveJSON runs one request against h and decodes the JSON answer.
func serveJSON(t *testing.T, h http.Handler, method, path, body string) (int, map[string]interface{}) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: %d %q: %v", method, path, rec.Code, rec.Body.String(), err)
	}
	return rec.Code, out
}

// TestWALBootOverMappedSnapshot drives `tpad serve -graphs <dir> -wal <w>`
// over a memory-mapped 2-shard snapshot through three boots. Boot 1 takes a
// durable write; boot 2 replays it onto the mapping and auto-compacts a
// second write into <w>/g.tpam; boot 3 cold-starts from that snapshot.
// Every write applies, and each boot serves the shard plan, the error bound
// and the answers of an engine that took the same writes directly.
func TestWALBootOverMappedSnapshot(t *testing.T) {
	g := tpa.RandomSBMGraph(300, 4, 5, 0.9, 5)
	built, err := tpa.NewSharded(g, 2, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	graphs := t.TempDir()
	if err := built.SaveSnapshotMmap(filepath.Join(graphs, "g.tpam")); err != nil {
		t.Fatal(err)
	}
	ing := &ingestSetup{
		root:  t.TempDir(),
		wal:   ingest.WALOptions{Fsync: ingest.FsyncAlways},
		queue: ingest.Options{MaxBatchAge: time.Millisecond},
	}
	boot := func() *server.Handler {
		t.Helper()
		h := server.NewRegistry(server.Options{})
		if err := registerDir(h, graphs, tpa.Defaults(), ing); err != nil {
			t.Fatal(err)
		}
		if err := ing.enable(h, h.GraphNames()); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// want is the engine that took the same writes without a server.
	want := built
	write := func(h *server.Handler, u, v int, done string) {
		t.Helper()
		if g.HasEdge(u, v) {
			t.Fatalf("test premise broken: edge %d→%d exists", u, v)
		}
		if code, body := serveJSON(t, h, http.MethodPost, "/graphs/g/edges", fmt.Sprintf(`{"add":[[%d,%d]]}`, u, v)); code != http.StatusAccepted {
			t.Fatalf("write %d→%d: %d %v", u, v, code, body)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			_, stats := serveJSON(t, h, http.MethodGet, "/graphs/g/stats", "")
			st := stats["ingest"].(map[string]interface{})
			if st["apply_errors"] != 0.0 {
				t.Fatalf("write %d→%d failed to apply: %v", u, v, st)
			}
			if st[done].(float64) >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("write %d→%d: %s never reached 1: %v", u, v, done, st)
			}
		}
		if want, _, err = want.ApplyEdges([][2]int{{u, v}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(h *server.Handler, tag string) {
		t.Helper()
		_, stats := serveJSON(t, h, http.MethodGet, "/graphs/g/stats", "")
		gi := stats["graph"].(map[string]interface{})
		shards := stats["shards"].(map[string]interface{})
		if gi["edges"] != float64(want.NumEdges()) || shards["count"] != 2.0 {
			t.Fatalf("%s: %v edges / %v shards, want %d / 2", tag, gi["edges"], shards["count"], want.NumEdges())
		}
		// The bound carries the writes' staleness, across replay and the
		// compacted snapshot alike.
		if stats["error_bound"] != want.ErrorBound() || stats["stale_bound"] != want.StaleBound() {
			t.Fatalf("%s: error_bound %v / stale_bound %v, want %g / %g", tag,
				stats["error_bound"], stats["stale_bound"], want.ErrorBound(), want.StaleBound())
		}
		top, err := want.TopK(3, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, body := serveJSON(t, h, http.MethodGet, "/graphs/g/topk?seed=3&k=10", "")
		for i, r := range body["results"].([]interface{}) {
			e := r.(map[string]interface{})
			if e["node"] != float64(top[i].Index) || e["score"] != top[i].Score {
				t.Fatalf("%s: /topk entry %d = %v, want %+v", tag, i, e, top[i])
			}
		}
	}

	h := boot()
	write(h, 3, 150, "applied_batches")
	check(h, "boot 1")
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	ing.queue.CompactWALBytes = 1
	h = boot()
	check(h, "boot 2 (WAL replayed onto the mapping)")
	write(h, 7, 250, "compactions")
	check(h, "boot 2 after an auto-compaction")
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(ing.root, "g.tpam")); err != nil {
		t.Fatalf("auto-compaction wrote no TPAM snapshot: %v", err)
	}

	h = boot()
	defer h.Close()
	check(h, "boot 3 (compacted snapshot)")
}
