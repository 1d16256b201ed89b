package main

import (
	"context"
	"encoding/json"
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

// End-to-end coverage for `tpad mutate -watch`: edge-event lines appended
// to a followed file must reach the server (through the durable ingest
// path) and advance the graph's mutation counters.
func TestWatchMutationsEndToEnd(t *testing.T) {
	g := tpa.RandomCommunityGraph(100, 800, 4, 11)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewRegistry(server.DefaultOptions())
	if err := h.Register("web", eng, server.Info{Nodes: 100, Edges: 800, Name: "web"}); err != nil {
		t.Fatal(err)
	}
	if err := h.EnableIngest("web", server.IngestConfig{
		Dir:   t.TempDir(),
		WAL:   ingest.WALOptions{Fsync: ingest.FsyncOff},
		Queue: ingest.Options{MaxBatchAge: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "live.txt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- watchMutations(ctx, srv.URL+"/graphs/web/edges", path, 2*time.Millisecond)
	}()

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Two complete events, then a partial line that must wait for its
	// newline, then its completion plus one more event.
	if _, err := f.WriteString("+ 1 2\n- 3 4\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := f.WriteString("5 6"); err != nil { // no newline yet
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := f.WriteString("\n+ 7 8\n"); err != nil {
		t.Fatal(err)
	}

	// 4 edge events total; poll the server until the batcher applied them
	// all and the mutation counter moved.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/graphs/web/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Mutations float64 `json:"mutations"`
			Ingest    struct {
				AppliedEdges float64 `json:"applied_edges"`
			} `json:"ingest"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Ingest.AppliedEdges >= 4 && stats.Mutations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watched mutations never applied: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatalf("watchMutations: %v", err)
	}
}

// TestPostMutationReportsHead: `tpad mutate` says whether each synchronous
// write recomputed the head or skipped it. A freshly built engine's first
// write recomputes; a small one right after skips.
func TestPostMutationReportsHead(t *testing.T) {
	eng, err := tpa.New(tpa.RandomCommunityGraph(100, 800, 4, 12), tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewWith(eng, server.Info{Nodes: 100, Edges: 800}, server.DefaultOptions()))
	defer srv.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	url := srv.URL + "/graphs/default/edges"
	errs := []error{
		postMutation(context.Background(), url, mutateRequest{Add: [][2]int{{1, 99}, {2, 98}}}),
		postMutation(context.Background(), url, mutateRequest{Add: [][2]int{{3, 97}}}),
	}
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "head recomputed (9 steps)") || !strings.Contains(lines[1], "head skipped, 1 iters") {
		t.Errorf("tpad mutate printed %q, want a recomputed head then a skipped one", out)
	}
}
