package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// TestBuildWritesMappedSnapshot: `tpad build -shards 2` needs no -mmap, and
// the file it writes is a TPAM snapshot whatever its name. Served through
// the single-graph loader it is mapped, keeps both shards, and answers
// /topk bit-identically to the engine it was built from. The build's
// summary names its preprocessing iterations and stale bound. A file in the
// retired combined-snapshot format fails typed and names the fix.
func TestBuildWritesMappedSnapshot(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "x.tsv")
	if err := tpa.SaveGraph(edges, tpa.RandomSBMGraph(300, 4, 5, 0.9, 3)); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "s.tpas")
	var buildErr error
	printed := captureStdout(t, func() { buildErr = cmdBuild([]string{"-graph", edges, "-o", out, "-shards", "2"}) })
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	loaded, info, err := singleLoader(out, tpa.Defaults())()
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !loaded.Mapped() || loaded.NumShards() != 2 {
		t.Fatalf("served snapshot: mapped %v, %d shards; want mapped, 2", loaded.Mapped(), loaded.NumShards())
	}
	g, err := tpa.LoadGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tpa.NewSharded(g, 2, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	summary := fmt.Sprintf("(%d iterations, stale bound %.3g)", want.PreprocessIters(), want.StaleBound())
	if want.StaleBound() <= 0 || !strings.Contains(printed, summary) {
		t.Errorf("tpad build printed %q, want %q with a positive bound", printed, summary)
	}
	if loaded.PreprocessIters() != want.PreprocessIters() || loaded.StaleBound() != want.StaleBound() {
		t.Errorf("served snapshot: %d iterations, stale bound %g; the build %d, %g",
			loaded.PreprocessIters(), loaded.StaleBound(), want.PreprocessIters(), want.StaleBound())
	}
	top, err := want.TopK(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewWith(loaded, info, server.DefaultOptions())
	_, body := serveJSON(t, h, http.MethodGet, "/topk?seed=3&k=10", "")
	results := body["results"].([]interface{})
	if len(results) != len(top) {
		t.Fatalf("/topk returned %d entries, want %d", len(results), len(top))
	}
	for i, r := range results {
		e := r.(map[string]interface{})
		if e["node"] != float64(top[i].Index) || e["score"] != top[i].Score {
			t.Fatalf("/topk entry %d = %v, want %+v", i, e, top[i])
		}
	}

	old := filepath.Join(dir, "old.tpas")
	// The retired combined-snapshot magic, then bytes no loader reaches.
	if err := os.WriteFile(old, append([]byte{0x54, 0x50, 0x41, 0x53}, make([]byte, 60)...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = singleLoader(old, tpa.Defaults())()
	if !errors.Is(err, tpa.ErrBadSnapshot) || !strings.Contains(err.Error(), "tpad build") {
		t.Fatalf("old snapshot format: %v, want ErrBadSnapshot naming `tpad build`", err)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed (a pipe's buffer worth at most).
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	fn()
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	r.Close()
	return string(out)
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
