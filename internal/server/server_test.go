package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpa"
	"tpa/internal/core"
	"tpa/internal/sparse"
)

func testEngine(t *testing.T) *tpa.Engine {
	t.Helper()
	g := tpa.RandomCommunityGraph(200, 1800, 4, 31)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testHandler(t *testing.T) *Handler {
	t.Helper()
	eng := testEngine(t)
	return New(eng, Info{Nodes: 200, Edges: 1800, Name: "test"})
}

func postJSON(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp map[string]interface{}
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil && rec.Code == http.StatusOK {
			t.Fatalf("%s: bad JSON: %v (%s)", path, err, rec.Body.String())
		}
	}
	return rec, resp
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]interface{}
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil && rec.Code == http.StatusOK {
			t.Fatalf("%s: bad JSON: %v (%s)", path, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	h := testHandler(t)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestTopK(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/topk?seed=5&k=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	results := body["results"].([]interface{})
	if len(results) != 7 {
		t.Fatalf("got %d results", len(results))
	}
	first := results[0].(map[string]interface{})
	if first["score"].(float64) <= 0 {
		t.Error("top score not positive")
	}
	// Scores descend.
	prev := first["score"].(float64)
	for _, r := range results[1:] {
		s := r.(map[string]interface{})["score"].(float64)
		if s > prev {
			t.Fatal("scores not descending")
		}
		prev = s
	}
}

func TestTopKBadRequests(t *testing.T) {
	h := testHandler(t)
	for _, path := range []string{"/topk", "/topk?seed=abc", "/topk?seed=5&k=0", "/topk?seed=-2"} {
		rec, _ := get(t, h, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", path, rec.Code)
		}
	}
	// Seed out of range → 422.
	rec, _ := get(t, h, "/topk?seed=100000")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range seed: code %d, want 422", rec.Code)
	}
}

func TestScore(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/score?seed=5&node=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if body["score"].(float64) <= 0 {
		t.Error("self score not positive")
	}
	rec, _ = get(t, h, "/score?seed=5&node=99999")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range node: code %d", rec.Code)
	}
	rec, _ = get(t, h, "/score?seed=5")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing node: code %d", rec.Code)
	}
}

// TestQuerySet: /queryset answers the engine's top k for the seed set, a
// duplicate seed counting twice, with external ids and score bits intact on
// a reordered engine.
func TestQuerySet(t *testing.T) {
	o := tpa.Defaults()
	o.Order = "degree"
	eng, err := tpa.New(tpa.RandomCommunityGraph(200, 1800, 4, 31), o)
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng, Info{Nodes: 200, Edges: 1800, Name: "test"})
	seeds := []int{1, 2, 3, 2}
	scores, _, err := eng.QueryDeadline(context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	want := tpa.TopKOf(scores, 5)
	rec, resp := postJSON(t, h, "/queryset", `{"seeds":[1,2,3,2],"k":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	results := resp["results"].([]interface{})
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		e := r.(map[string]interface{})
		if int(e["node"].(float64)) != want[i].Index || e["score"].(float64) != want[i].Score {
			t.Errorf("result %d = %v, the engine's set answer has %+v", i, e, want[i])
		}
	}
}

func TestQuerySetBadRequests(t *testing.T) {
	h := testHandler(t)
	cases := []string{`not json`, `{"seeds":[]}`, `{"seeds":[999999]}`}
	wants := []int{http.StatusBadRequest, http.StatusBadRequest, http.StatusUnprocessableEntity}
	for i, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/queryset", bytes.NewReader([]byte(c)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != wants[i] {
			t.Errorf("body %q: code %d, want %d", c, rec.Code, wants[i])
		}
	}
}

func TestStats(t *testing.T) {
	h := testHandler(t)
	rec, body := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if body["index_bytes"].(float64) <= 0 {
		t.Error("index_bytes missing")
	}
	if int(body["s"].(float64)) != 5 || int(body["t"].(float64)) != 10 {
		t.Errorf("params %v/%v", body["s"], body["t"])
	}
	g := body["graph"].(map[string]interface{})
	if g["name"].(string) != "test" {
		t.Errorf("graph info %v", g)
	}
}

func TestBatch(t *testing.T) {
	h := testHandler(t)
	rec, body := postJSON(t, h, "/batch", `{"seeds":[5,9,5,17],"k":4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	results := body["results"].([]interface{})
	if len(results) != 4 {
		t.Fatalf("got %d per-seed results", len(results))
	}
	// Each per-seed answer must match the single-query endpoint.
	for _, r := range results {
		sr := r.(map[string]interface{})
		seed := int(sr["seed"].(float64))
		entries := sr["results"].([]interface{})
		if len(entries) != 4 {
			t.Fatalf("seed %d: %d entries", seed, len(entries))
		}
		rec2, single := get(t, h, fmt.Sprintf("/topk?seed=%d&k=4", seed))
		if rec2.Code != http.StatusOK {
			t.Fatal(rec2.Code)
		}
		want := single["results"].([]interface{})
		for j := range entries {
			e, w := entries[j].(map[string]interface{}), want[j].(map[string]interface{})
			if e["node"] != w["node"] || e["score"] != w["score"] {
				t.Errorf("seed %d entry %d: batch %v != topk %v", seed, j, e, w)
			}
		}
	}
}

func TestBatchBadRequests(t *testing.T) {
	h := testHandler(t)
	cases := []string{`not json`, `{"seeds":[]}`, `{"seeds":[1,999999]}`}
	wants := []int{http.StatusBadRequest, http.StatusBadRequest, http.StatusUnprocessableEntity}
	for i, c := range cases {
		rec, _ := postJSON(t, h, "/batch", c)
		if rec.Code != wants[i] {
			t.Errorf("body %q: code %d, want %d", c, rec.Code, wants[i])
		}
	}
}

func TestBatchLimit(t *testing.T) {
	eng := testEngine(t)
	h := NewWith(eng, Info{Name: "test"}, Options{MaxBatch: 2})
	rec, _ := postJSON(t, h, "/batch", `{"seeds":[1,2,3]}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: code %d, want 413", rec.Code)
	}
	rec, _ = postJSON(t, h, "/batch", `{"seeds":[1,2]}`)
	if rec.Code != http.StatusOK {
		t.Errorf("in-limit batch: code %d", rec.Code)
	}
	// The same cap guards /queryset: its multi-seed query is just as
	// unbounded as a batch.
	rec, _ = postJSON(t, h, "/queryset", `{"seeds":[1,2,3]}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized queryset: code %d, want 413", rec.Code)
	}
}

func TestCacheCounters(t *testing.T) {
	eng := testEngine(t)
	h := NewWith(eng, Info{Name: "test"}, Options{CacheSize: 8})
	// Same (seed, k) twice: second hit must come from the cache.
	for i := 0; i < 2; i++ {
		if rec, _ := get(t, h, "/topk?seed=3&k=5"); rec.Code != http.StatusOK {
			t.Fatal(rec.Code)
		}
	}
	_, stats := get(t, h, "/stats")
	cache := stats["cache"].(map[string]interface{})
	if cache["hits"].(float64) < 1 {
		t.Errorf("cache hits = %v after repeat query", cache["hits"])
	}
	if cache["hit_rate"].(float64) <= 0 {
		t.Errorf("hit_rate = %v", cache["hit_rate"])
	}
	// A batch over cached + uncached seeds must still answer every seed.
	rec, body := postJSON(t, h, "/batch", `{"seeds":[3,4],"k":5}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if n := len(body["results"].([]interface{})); n != 2 {
		t.Fatalf("mixed cache batch: %d results", n)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newTopkCache(2)
	c.Put(1, 10, []sparse.Entry{{Index: 1, Score: 0.5}})
	c.Put(2, 10, []sparse.Entry{{Index: 2, Score: 0.5}})
	if _, ok := c.Get(1, 10); !ok {
		t.Fatal("entry 1 missing")
	}
	// Entry 2 is now LRU; inserting a third must evict it, not entry 1.
	c.Put(3, 10, []sparse.Entry{{Index: 3, Score: 0.5}})
	if _, ok := c.Get(2, 10); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(1, 10); !ok {
		t.Error("recently used entry evicted")
	}
	// Same seed with a different k is a distinct entry.
	if _, ok := c.Get(1, 20); ok {
		t.Error("k ignored in cache key")
	}
}

// checkMethodParam pins the method parameter on one query request: no
// parameter, method=tpa and method=TPA get byte-identical answers, and any
// other name is a 400 pointing at the offline arena, never a TPA answer.
func checkMethodParam(t *testing.T, h http.Handler, method, path, body string) {
	t.Helper()
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	plain := serveQuery(h, method, path, body, "")
	if plain.Code != http.StatusOK {
		t.Fatalf("%s: code %d (%s)", path, plain.Code, plain.Body.String())
	}
	for _, m := range []string{"tpa", "TPA"} {
		rec := serveQuery(h, method, path+sep+"method="+m, body, "")
		if rec.Code != http.StatusOK || rec.Body.String() != plain.Body.String() {
			t.Errorf("%s method=%s: code %d body %s, want the plain answer %s", path, m, rec.Code, rec.Body.String(), plain.Body.String())
		}
	}
	for _, m := range []string{"fora", "exact", "no-such-engine"} {
		rec := serveQuery(h, method, path+sep+"method="+m, body, "")
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "tpad arena") {
			t.Errorf("%s method=%s: code %d body %s, want 400 naming tpad arena", path, m, rec.Code, rec.Body.String())
		}
	}
}

func TestMethodTopK(t *testing.T) {
	h := testHandler(t)
	for _, path := range []string{"/topk?seed=5&k=4", "/graphs/default/topk?seed=5&k=4"} {
		checkMethodParam(t, h, http.MethodGet, path, "")
	}
}

func TestMethodScoreAndBatch(t *testing.T) {
	h := testHandler(t)
	for _, prefix := range []string{"", "/graphs/default"} {
		checkMethodParam(t, h, http.MethodGet, prefix+"/score?seed=5&node=9", "")
		checkMethodParam(t, h, http.MethodPost, prefix+"/batch", `{"seeds":[5,9],"k":3}`)
		checkMethodParam(t, h, http.MethodPost, prefix+"/queryset", `{"seeds":[5,9],"k":3}`)
	}
}

// TestMethodErrors: a rejected method never reaches the engine, whatever
// budget the request carries, and counts as an endpoint error.
func TestMethodErrors(t *testing.T) {
	eng := &fakeEngine{}
	h := NewWith(eng, Info{Name: "test"}, Options{DefaultDeadline: time.Second})
	for _, header := range []string{"", "0", "50"} {
		if rec := serveQuery(h, http.MethodGet, "/topk?seed=1&method=fora", "", header); rec.Code != http.StatusBadRequest {
			t.Errorf("header %q: code %d, want 400", header, rec.Code)
		}
	}
	if n := eng.calls.Load(); n != 0 {
		t.Errorf("rejected method requests made %d engine calls", n)
	}
	_, stats := get(t, h, "/stats")
	ep := stats["endpoints"].(map[string]interface{})["topk"].(map[string]interface{})
	if ep["errors"].(float64) != 3 {
		t.Errorf("topk errors = %v, want 3", ep["errors"])
	}
}

// fakeEngine is the server tests' engine double. Every query records the
// call and the context it ran under, so tests can see which engine calls a
// request made and with what budget. When entered is set, TopKDeadline
// signals it and then blocks until release is closed, pinning a request in
// flight. Answers report a partial meta when partial is set.
type fakeEngine struct {
	entered, release chan struct{}
	partial          bool
	calls            atomic.Int64 // query calls of every shape
	lastBudget       atomic.Int64 // ns from the last call to its ctx deadline; -1 when it had none
}

func (f *fakeEngine) record(ctx context.Context) {
	f.calls.Add(1)
	budget := int64(-1)
	if dl, ok := ctx.Deadline(); ok {
		budget = int64(time.Until(dl))
	}
	f.lastBudget.Store(budget)
}

func (f *fakeEngine) meta() core.QueryMeta {
	if f.partial {
		return core.QueryMeta{Partial: true, EffectiveS: 2, Steps: 1, Bound: 0.5}
	}
	return core.QueryMeta{EffectiveS: 5, Steps: 4, Bound: 0.01}
}

func (f *fakeEngine) QueryDeadline(ctx context.Context, seeds []int) ([]float64, core.QueryMeta, error) {
	f.record(ctx)
	return []float64{0.25, 0.75}, f.meta(), nil
}

func (f *fakeEngine) TopKDeadline(ctx context.Context, seeds []int, k int) ([]sparse.Entry, core.QueryMeta, error) {
	f.record(ctx)
	if f.entered != nil {
		f.entered <- struct{}{}
		<-f.release
	}
	return []sparse.Entry{{Index: seeds[0], Score: 1}}, f.meta(), nil
}

func (f *fakeEngine) TopKBatchDeadline(ctx context.Context, seeds []int, k, p int) ([][]sparse.Entry, []core.QueryMeta, error) {
	f.record(ctx)
	tops := make([][]sparse.Entry, len(seeds))
	metas := make([]core.QueryMeta, len(seeds))
	for i, s := range seeds {
		tops[i] = []sparse.Entry{{Index: s, Score: 1}}
		metas[i] = f.meta()
	}
	return tops, metas, nil
}

func (f *fakeEngine) Params() (int, int)  { return 5, 10 }
func (f *fakeEngine) IndexBytes() int64   { return 8 }
func (f *fakeEngine) ErrorBound() float64 { return 0.44 }

func TestConcurrencyLimitSheds503(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	h := NewWith(eng, Info{Name: "test"}, Options{MaxInFlight: 1, CacheSize: 0})
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?seed=1", nil))
		done <- rec.Code
	}()
	<-eng.entered // first request now holds the only slot
	rec, _ := get(t, h, "/topk?seed=2")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("second request: code %d, want 503", rec.Code)
	}
	// /healthz and /stats bypass the limiter.
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusOK {
		t.Errorf("healthz limited: %d", hrec.Code)
	}
	rec, stats := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Errorf("stats limited: %d", rec.Code)
	}
	if got := stats["in_flight"].(float64); got != 1 {
		t.Errorf("in_flight = %v, want 1", got)
	}
	ep := stats["endpoints"].(map[string]interface{})["topk"].(map[string]interface{})
	if ep["rejected"].(float64) != 1 {
		t.Errorf("rejected counter = %v, want 1", ep["rejected"])
	}
	close(eng.release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("first request: code %d", code)
	}
}

func TestStatsEndpointCounters(t *testing.T) {
	h := testHandler(t)
	get(t, h, "/topk?seed=1&k=3")
	get(t, h, "/topk?seed=bogus")
	_, stats := get(t, h, "/stats")
	ep := stats["endpoints"].(map[string]interface{})["topk"].(map[string]interface{})
	if ep["requests"].(float64) != 2 {
		t.Errorf("requests = %v, want 2", ep["requests"])
	}
	if ep["errors"].(float64) != 1 {
		t.Errorf("errors = %v, want 1", ep["errors"])
	}
	if ep["avg_latency_us"].(float64) < 0 {
		t.Errorf("negative latency %v", ep["avg_latency_us"])
	}
}

// TestConcurrentClients hammers every endpoint from many goroutines; run
// under -race it verifies the cache, counters and worker pool are
// thread-safe.
func TestConcurrentClients(t *testing.T) {
	eng := testEngine(t)
	h := NewWith(eng, Info{Name: "race"}, Options{Workers: 4, CacheSize: 16, MaxInFlight: 64})
	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seed := (c*7 + i) % 20
				if rec, _ := get(t, h, fmt.Sprintf("/topk?seed=%d&k=5", seed)); rec.Code != http.StatusOK {
					t.Errorf("topk: %d", rec.Code)
				}
				body := fmt.Sprintf(`{"seeds":[%d,%d,%d],"k":3}`, seed, seed+1, (seed+50)%200)
				if rec, _ := postJSON(t, h, "/batch", body); rec.Code != http.StatusOK {
					t.Errorf("batch: %d", rec.Code)
				}
				if rec, _ := get(t, h, "/stats"); rec.Code != http.StatusOK {
					t.Errorf("stats: %d", rec.Code)
				}
			}
		}(c)
	}
	wg.Wait()
}
