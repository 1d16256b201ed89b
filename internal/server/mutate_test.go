package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpa"
)

func TestMutateAddsAndRemovesEdges(t *testing.T) {
	g := tpa.RandomSBMGraph(120, 2, 5, 0.9, 33)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h := NewRegistry(Options{CacheSize: 16})
	if err := h.Register("live", eng, Info{Nodes: 120, Edges: g.NumEdges(), Name: "live"}); err != nil {
		t.Fatal(err)
	}
	// Warm the cache so the swap's partition replacement is observable.
	get(t, h, "/graphs/live/topk?seed=1&k=3")

	victim := int(g.OutNeighbors(1)[0])
	rec, body := postJSON(t, h, "/graphs/live/edges",
		fmt.Sprintf(`{"add":[[1,119],[2,118]],"remove":[[1,%d]]}`, victim))
	if rec.Code != http.StatusOK {
		t.Fatalf("mutate: %d (%v)", rec.Code, body)
	}
	if body["added"].(float64) != 2 || body["removed"].(float64) != 1 {
		t.Errorf("added/removed = %v/%v, want 2/1", body["added"], body["removed"])
	}
	if want := float64(g.NumEdges() + 1); body["edges"].(float64) != want {
		t.Errorf("edges = %v, want %v", body["edges"], want)
	}
	if body["incremental"] != true || body["compacted"] != true {
		t.Errorf("small batch not incremental and compacted: %v", body)
	}
	if _, ok := body["pending_ops"]; ok {
		t.Errorf("answer still carries pending_ops: %v", body)
	}
	// The reindex work is exported as a counter, equal to what the answer
	// reported.
	iters := body["reindex_iters"].(float64)
	if iters < 1 {
		t.Errorf("reindex_iters = %v, want ≥ 1", iters)
	}
	if got := graphMetric(t, h, "tpa_graph_reindex_iters_total", "live"); got != iters {
		t.Errorf("tpa_graph_reindex_iters_total = %v, want %v", got, iters)
	}
	// A freshly built engine has no head state to reuse: its first write
	// recomputes the T-1 step head.
	if _, T := eng.Params(); body["head_iters"] != float64(T-1) {
		t.Errorf("head_iters = %v on the first write, want %d", body["head_iters"], T-1)
	}
	if got := graphMetric(t, h, "tpa_graph_head_skips_total", "live"); got != 0 {
		t.Errorf("tpa_graph_head_skips_total = %v after a recomputing write, want 0", got)
	}
	// The stats reflect the swap: edge count updated, cache partition fresh,
	// mutation counter bumped.
	_, stats := get(t, h, "/graphs/live/stats")
	if stats["mutations"].(float64) != 1 {
		t.Errorf("mutations = %v, want 1", stats["mutations"])
	}
	gi := stats["graph"].(map[string]interface{})
	if gi["edges"].(float64) != float64(g.NumEdges()+1) {
		t.Errorf("stats edges = %v", gi["edges"])
	}
	// The write's staleness is reported and folded into the served bound.
	stale, ok := body["stale_bound"].(float64)
	if !ok || stale <= 0 {
		t.Errorf("stale_bound = %v, want > 0 after a write", body["stale_bound"])
	}
	if stats["stale_bound"] != stale || stats["error_bound"] != eng.ErrorBound()+stale {
		t.Errorf("stats stale_bound/error_bound = %v/%v, want %v/%v",
			stats["stale_bound"], stats["error_bound"], stale, eng.ErrorBound()+stale)
	}
	if entries := stats["cache"].(map[string]interface{})["entries"].(float64); entries != 0 {
		t.Errorf("cache entries = %v after mutation, want 0 (partition replaced)", entries)
	}
	// /graphs listing carries the counter too.
	_, listing := get(t, h, "/graphs")
	first := listing["graphs"].([]interface{})[0].(map[string]interface{})
	if first["mutations"].(float64) != 1 {
		t.Errorf("listing mutations = %v", first["mutations"])
	}

	// An all-no-op batch (the add exists, the remove doesn't) must not
	// swap state: the warm cache partition survives.
	get(t, h, "/graphs/live/topk?seed=2&k=3")
	rec, body = postJSON(t, h, "/graphs/live/edges",
		fmt.Sprintf(`{"add":[[1,119]],"remove":[[1,%d]]}`, victim))
	if rec.Code != http.StatusOK {
		t.Fatalf("no-op mutate: %d (%v)", rec.Code, body)
	}
	if body["added"].(float64) != 0 || body["removed"].(float64) != 0 || body["compacted"] != false {
		t.Errorf("no-op batch reported %v/%v mutations, compacted %v", body["added"], body["removed"], body["compacted"])
	}
	if got := graphMetric(t, h, "tpa_graph_reindex_iters_total", "live"); got != iters {
		t.Errorf("no-op batch moved tpa_graph_reindex_iters_total to %v, want %v", got, iters)
	}
	_, stats = get(t, h, "/graphs/live/stats")
	if entries := stats["cache"].(map[string]interface{})["entries"].(float64); entries == 0 {
		t.Error("no-op batch evicted the cache partition")
	}

	// A small write after the recompute reuses its head: no head steps, one
	// application, one skip counted.
	rec, body = postJSON(t, h, "/graphs/live/edges", `{"add":[[3,117]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("second mutate: %d (%v)", rec.Code, body)
	}
	if body["head_iters"] != 0.0 || body["reindex_iters"] != 1.0 {
		t.Errorf("second write: head_iters %v, reindex_iters %v; want a skipped head (0, 1)", body["head_iters"], body["reindex_iters"])
	}
	if got := graphMetric(t, h, "tpa_graph_head_skips_total", "live"); got != 1 {
		t.Errorf("tpa_graph_head_skips_total = %v after a skipped write, want 1", got)
	}
}

func TestMutateErrors(t *testing.T) {
	g := tpa.RandomSBMGraph(50, 2, 4, 0.9, 34)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h := NewRegistry(Options{})
	if err := h.Register("live", eng, Info{Nodes: 50, Edges: g.NumEdges()}); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("fake", &fakeEngine{}, Info{Nodes: 1, Edges: 0}); err != nil {
		t.Fatal(err)
	}

	rec, _ := postJSON(t, h, "/graphs/nope/edges", `{"add":[[0,1]]}`)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown graph: %d, want 404", rec.Code)
	}
	rec, _ = postJSON(t, h, "/graphs/live/edges", `{"add":`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", rec.Code)
	}
	rec, _ = postJSON(t, h, "/graphs/live/edges", `{}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty mutation: %d, want 400", rec.Code)
	}
	rec, _ = postJSON(t, h, "/graphs/live/edges", `{"add":[[0,999]]}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range edge: %d, want 422", rec.Code)
	}
	// A failed mutation leaves the old engine serving.
	rec, _ = get(t, h, "/graphs/live/topk?seed=1&k=2")
	if rec.Code != http.StatusOK {
		t.Errorf("graph dead after failed mutation: %d", rec.Code)
	}
	// Engines that are not *tpa.Engine cannot mutate.
	rec, _ = postJSON(t, h, "/graphs/fake/edges", `{"add":[[0,0]]}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("non-mutable engine: %d, want 409", rec.Code)
	}
	// That refusal is permanent, not a held swap slot, so the -wal
	// batcher must not retry it as one.
	h.mu.RLock()
	fake := h.graphs["fake"]
	h.mu.RUnlock()
	if _, _, err := h.applyWrite(fake, 0, [][2]int{{0, 1}}, nil); !errors.Is(err, errNoWrites) || errors.Is(err, errConflict) {
		t.Errorf("non-mutable engine write: %v, want errNoWrites and no errConflict", err)
	}
}

// TestMutateReloadConflict pins a reload inside its loader and checks a
// concurrent mutation is turned away with 409: swaps of one graph
// serialize instead of racing.
func TestMutateReloadConflict(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	loader := func() (Engine, Info, error) {
		if calls.Add(1) > 1 {
			entered <- struct{}{}
			<-release
		}
		g := tpa.RandomSBMGraph(60, 2, 4, 0.9, 35)
		eng, err := tpa.New(g, tpa.Defaults())
		return eng, Info{Nodes: 60, Edges: g.NumEdges()}, err
	}
	h := NewRegistry(Options{})
	if err := h.RegisterLoader("slow", loader); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		rec, _ := postJSON(t, h, "/graphs/slow/reload", "")
		done <- rec.Code
	}()
	<-entered // reload is now blocked inside the loader
	rec, _ := postJSON(t, h, "/graphs/slow/edges", `{"add":[[0,1]]}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("mutation during reload: %d, want 409", rec.Code)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("reload: %d", code)
	}
	// With the reload done, the mutation goes through.
	rec, _ = postJSON(t, h, "/graphs/slow/edges", `{"add":[[0,1]]}`)
	if rec.Code != http.StatusOK {
		t.Errorf("mutation after reload: %d", rec.Code)
	}
}

// TestMutateUnderFire hammers a graph with concurrent queries while edge
// batches land one after another: every query must succeed against either
// the pre- or post-mutation engine — the atomic swap drops nothing. Run
// with -race this also proves the mutation path is data-race free.
func TestMutateUnderFire(t *testing.T) {
	const nodes = 120
	g := tpa.RandomSBMGraph(nodes, 3, 5, 0.9, 36)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h := NewRegistry(Options{CacheSize: 32, Workers: 2})
	if err := h.Register("fire", eng, Info{Nodes: nodes, Edges: g.NumEdges(), Name: "fire"}); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seed := (c*13 + i) % nodes
				var rec *httptest.ResponseRecorder
				if i%3 == 0 {
					rec, _ = postJSON(t, h, "/graphs/fire/batch",
						fmt.Sprintf(`{"seeds":[%d,%d],"k":3}`, seed, (seed+7)%nodes))
				} else {
					rec, _ = get(t, h, fmt.Sprintf("/graphs/fire/topk?seed=%d&k=3", seed))
				}
				if rec.Code != http.StatusOK {
					t.Errorf("query during mutation: %d (%s)", rec.Code, rec.Body.String())
					return
				}
				served.Add(1)
			}
		}(c)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 5; i++ {
		// Require query traffic between swaps, so every generation provably
		// serves while the next mutation races it.
		target := served.Load() + int64(clients)
		for served.Load() < target {
			if time.Now().After(deadline) {
				t.Fatal("clients stopped serving during the mutation storm")
			}
			time.Sleep(time.Millisecond)
		}
		rec, body := postJSON(t, h, "/graphs/fire/edges",
			fmt.Sprintf(`{"add":[[%d,%d],[%d,%d]]}`, i, nodes-1-i, i+10, i+20))
		if rec.Code != http.StatusOK {
			t.Fatalf("mutation %d: %d (%v)", i, rec.Code, body)
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no queries served during the mutation storm")
	}
	_, stats := get(t, h, "/graphs/fire/stats")
	if stats["mutations"].(float64) != 5 {
		t.Errorf("mutations = %v, want 5", stats["mutations"])
	}
	// All five adds are distinct new edges: the final edge count reflects
	// every batch despite the storm.
	gi := stats["graph"].(map[string]interface{})
	if want := float64(g.NumEdges() + 10); gi["edges"].(float64) != want {
		t.Errorf("final edges = %v, want %v", gi["edges"], want)
	}
}

func TestMutateBodyTooLarge(t *testing.T) {
	// Every JSON endpoint decodes through http.MaxBytesReader: a body over
	// the cap answers 413 instead of ballooning memory before MaxBatch is
	// checked (and, on the durable path, instead of acknowledging a batch a
	// restart could not replay).
	old := maxBody
	maxBody = 256
	defer func() { maxBody = old }()
	h := testHandler(t)
	for _, c := range []struct{ path, big, small string }{
		{"/graphs/default/edges", `{"add":[` + strings.Repeat(`[1,2],`, 100) + `[1,2]]}`, `{"add":[[1,2]]}`},
		{"/batch", `{"seeds":[` + strings.Repeat(`1,`, 200) + `1]}`, `{"seeds":[1,2]}`},
		{"/queryset", `{"seeds":[` + strings.Repeat(`1,`, 200) + `1]}`, `{"seeds":[1,2]}`},
	} {
		if int64(len(c.big)) <= maxBody {
			t.Fatalf("%s: test body (%d bytes) does not exceed the cap", c.path, len(c.big))
		}
		rec, _ := postJSON(t, h, c.path, c.big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: code = %d, want 413: %s", c.path, rec.Code, rec.Body.String())
		}
		// Under the cap the same endpoint still works.
		rec, _ = postJSON(t, h, c.path, c.small)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: small body after 413: code = %d: %s", c.path, rec.Code, rec.Body.String())
		}
	}
}

func TestBatchAnswerTooLarge(t *testing.T) {
	// One /batch answer is capped at maxBatchSlots cache slots of ranked
	// entries, counting min(k, n) per seed, before any engine work: a batch
	// one entry over the cap answers 413, while a k far beyond n on a
	// small batch is charged only n per seed.
	h := testHandler(t) // 200 nodes, no -max-batch
	const n = 200
	over := maxBatchSlots*defaultK/n + 1
	seeds := strings.TrimSuffix(strings.Repeat("1,", over), ",")
	rec, _ := postJSON(t, h, "/batch", fmt.Sprintf(`{"seeds":[%s],"k":%d}`, seeds, n))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d seeds at k=%d: code = %d, want 413: %.200s", over, n, rec.Code, rec.Body.String())
	}
	rec, resp := postJSON(t, h, "/batch", `{"seeds":[1,2],"k":1000000000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("2 seeds at k=1e9: code = %d: %s", rec.Code, rec.Body.String())
	}
	for _, r := range resp["results"].([]interface{}) {
		if got := len(r.(map[string]interface{})["results"].([]interface{})); got != n {
			t.Fatalf("2 seeds at k=1e9: %d entries per seed, want all %d nodes", got, n)
		}
	}
}
