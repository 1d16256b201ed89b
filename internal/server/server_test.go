package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpa"
	"tpa/internal/graph"
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
	// An out-of-range node is answered before any engine work.
	calls := watchEngine(t, &engineCalls{})
	rec, body = get(t, h, "/score?seed=5&node=99999")
	if rec.Code != http.StatusUnprocessableEntity || body["error"] != "node out of range" {
		t.Errorf("out-of-range node: code %d body %v", rec.Code, body)
	}
	if n := calls.calls.Load(); n != 0 {
		t.Errorf("out-of-range node made %d engine calls, want 0", n)
	}
	rec, _ = get(t, h, "/score?seed=5")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing node: code %d", rec.Code)
	}
}

// TestQuerySet: /queryset answers the engine's top k for the seed set, a
// duplicate seed counting twice, with external ids and score bits intact on
// a sharded (permuted) engine.
func TestQuerySet(t *testing.T) {
	// The generator numbers communities contiguously, which a shard plan
	// keeps; relabel at random so the plan has ids to move.
	perm := make([]int32, 200)
	for i, u := range rand.New(rand.NewSource(1)).Perm(len(perm)) {
		perm[i] = int32(u)
	}
	g, err := graph.Permute(tpa.RandomCommunityGraph(200, 1800, 4, 31), perm)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tpa.NewSharded(g, 2, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if p := eng.Permutation(); p == nil || slices.IsSorted(p) {
		t.Fatal("the shard plan left the engine unpermuted")
	}
	h := New(eng, Info{Nodes: 200, Edges: 1800, Name: "test"})
	seeds := []int{1, 2, 3, 2}
	as, err := eng.Answer(context.Background(), tpa.Request{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	want := tpa.TopKOf(as[0].Scores, 5)
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

// TestBatchFoldsRepeatedSeeds: a /batch that names a seed more than once
// sends each distinct missed seed to the engine once, in the order first
// named, with the cache on and off, and every position gets the body a
// batch of that seed alone gets.
func TestBatchFoldsRepeatedSeeds(t *testing.T) {
	eng := testEngine(t)
	alone := map[int]json.RawMessage{}
	for _, s := range []int{5, 7} {
		rec := serveQuery(NewWith(eng, Info{Name: "test"}, Options{}), http.MethodPost, "/batch",
			fmt.Sprintf(`{"seeds":[%d],"k":4}`, s), "")
		var body struct{ Results []json.RawMessage }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body.Results) != 1 {
			t.Fatalf("seed %d alone: %v (%s)", s, err, rec.Body.String())
		}
		alone[s] = body.Results[0]
	}
	for _, cache := range []int{0, 64} {
		for _, tc := range []struct{ seeds, engine []int }{
			{[]int{5, 5, 5, 5}, []int{5}},
			{[]int{5, 7, 5}, []int{5, 7}},
		} {
			t.Run(fmt.Sprintf("cache %d, seeds %v", cache, tc.seeds), func(t *testing.T) {
				calls := watchEngine(t, &engineCalls{})
				h := NewWith(eng, Info{Name: "test"}, Options{CacheSize: cache})
				body, _ := json.Marshal(map[string]interface{}{"seeds": tc.seeds, "k": 4})
				rec := serveQuery(h, http.MethodPost, "/batch", string(body), "")
				if rec.Code != http.StatusOK {
					t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
				}
				if n, got := calls.calls.Load(), calls.lastSeeds.Load(); n != 1 || !slices.Equal(*got, tc.engine) {
					t.Errorf("%d engine calls, the last for seeds %v; want one for %v", n, *got, tc.engine)
				}
				results := make([]json.RawMessage, len(tc.seeds))
				for i, s := range tc.seeds {
					results[i] = alone[s]
				}
				want := httptest.NewRecorder()
				writeJSON(want, map[string]interface{}{"k": 4, "results": results})
				if rec.Body.String() != want.Body.String() {
					t.Errorf("body\n%s\nwant\n%s", rec.Body.String(), want.Body.String())
				}
			})
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

// TestBatchK: /batch reads an omitted or 0 k as 10 and answers a negative
// k with 400, as /topk does.
func TestBatchK(t *testing.T) {
	h := testHandler(t)
	for _, c := range []struct {
		body    string
		code    int
		entries int
	}{
		{`{"seeds":[5]}`, http.StatusOK, 10},
		{`{"seeds":[5],"k":0}`, http.StatusOK, 10},
		{`{"seeds":[5],"k":3}`, http.StatusOK, 3},
		{`{"seeds":[5],"k":-3}`, http.StatusBadRequest, 0},
	} {
		rec, body := postJSON(t, h, "/batch", c.body)
		if rec.Code != c.code {
			t.Fatalf("body %s: code %d, want %d (%s)", c.body, rec.Code, c.code, rec.Body.String())
		}
		if c.code != http.StatusOK {
			if !strings.Contains(rec.Body.String(), "invalid k") {
				t.Errorf("body %s: error %q does not name k", c.body, rec.Body.String())
			}
			continue
		}
		sr := body["results"].([]interface{})[0].(map[string]interface{})
		if got := len(sr["results"].([]interface{})); got != c.entries {
			t.Errorf("body %s: %d entries, want %d", c.body, got, c.entries)
		}
	}
}

// TestQuerySetK: /queryset reads an omitted or 0 k as 10 and answers a
// negative k with 400, as /topk does.
func TestQuerySetK(t *testing.T) {
	h := testHandler(t)
	for _, c := range []struct {
		body    string
		code    int
		entries int
	}{
		{`{"seeds":[1,2]}`, http.StatusOK, 10},
		{`{"seeds":[1,2],"k":0}`, http.StatusOK, 10},
		{`{"seeds":[1,2],"k":3}`, http.StatusOK, 3},
		{`{"seeds":[1,2],"k":-3}`, http.StatusBadRequest, 0},
	} {
		rec, body := postJSON(t, h, "/queryset", c.body)
		if rec.Code != c.code {
			t.Fatalf("body %s: code %d, want %d (%s)", c.body, rec.Code, c.code, rec.Body.String())
		}
		if c.code != http.StatusOK {
			if !strings.Contains(rec.Body.String(), "invalid k") {
				t.Errorf("body %s: error %q does not name k", c.body, rec.Body.String())
			}
			continue
		}
		if got := len(body["results"].([]interface{})); got != c.entries {
			t.Errorf("body %s: %d entries, want %d", c.body, got, c.entries)
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

// The cache bound is in ranked entries, not answers: long answers charge
// ⌈len/10⌉ slots, so capacity C holds at most 10·C entries however large
// the requested k.
func TestCacheBoundedInEntries(t *testing.T) {
	const capacity = 256
	c := newTopkCache(capacity)
	long := make([]sparse.Entry, 1000)
	for seed := 0; seed < 4*capacity; seed++ {
		c.Put(seed, len(long), long)
	}
	held := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		held += len(el.Value.(*cacheItem).top)
	}
	if held == 0 || held > 10*capacity {
		t.Fatalf("cache holds %d ranked entries at capacity %d, want 1..%d", held, capacity, 10*capacity)
	}
	if _, ok := c.Get(4*capacity-1, len(long)); !ok {
		t.Error("most recent long answer was not cached")
	}
	// Answers of up to 10 entries cost one slot each.
	for seed := 0; seed < 2*capacity; seed++ {
		c.Put(seed, 10, long[:10])
	}
	if n := c.ll.Len(); n != capacity {
		t.Errorf("cache holds %d short answers at capacity %d", n, capacity)
	}
	// An answer longer than the whole capacity is not cached at all.
	c.Put(-1, 1e6, make([]sparse.Entry, 10*capacity+1))
	if _, ok := c.Get(-1, 1e6); ok {
		t.Error("answer larger than the capacity was cached")
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
		var reply struct{ Error string }
		_ = json.Unmarshal(rec.Body.Bytes(), &reply)
		if rec.Code != http.StatusBadRequest || !strings.Contains(reply.Error, "cd repro && go run ./cmd/arena") {
			t.Errorf("%s method=%s: code %d body %s, want 400 naming the arena command", path, m, rec.Code, rec.Body.String())
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
	eng := watchEngine(t, &engineCalls{})
	h := NewWith(testEngine(t), Info{Name: "test"}, Options{DefaultDeadline: time.Second})
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

// engineCalls is what watchEngine records of the engine calls the server
// makes: their count, and how far the context of the last one was from its
// deadline in ns (-1 when it had none). When entered is set, each call
// signals it and then blocks until release is closed, pinning a request in
// flight; delay is slept before each answer; and with expire set the
// engine answers under an already-cancelled context, which gives the
// deterministic S' = 1 partial answer.
type engineCalls struct {
	entered, release chan struct{}
	delay            time.Duration
	expire           bool
	calls            atomic.Int64
	lastBudget       atomic.Int64
	lastSeeds        atomic.Pointer[[]int]
}

// watchEngine routes the server's engine call through c until the test
// ends. The answers still come from the real engine.
func watchEngine(t *testing.T, c *engineCalls) *engineCalls {
	t.Helper()
	call := answer
	t.Cleanup(func() { answer = call })
	answer = func(eng Engine, ctx context.Context, req tpa.Request) ([]tpa.Answer, error) {
		c.calls.Add(1)
		seeds := slices.Clone(req.Seeds)
		c.lastSeeds.Store(&seeds)
		budget := int64(-1)
		if dl, ok := ctx.Deadline(); ok {
			budget = int64(time.Until(dl))
		}
		c.lastBudget.Store(budget)
		if c.entered != nil {
			c.entered <- struct{}{}
			<-c.release
		}
		time.Sleep(c.delay)
		if c.expire {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}
		return call(eng, ctx, req)
	}
	return c
}

func TestConcurrencyLimitSheds503(t *testing.T) {
	eng := watchEngine(t, &engineCalls{entered: make(chan struct{}, 1), release: make(chan struct{})})
	h := NewWith(testEngine(t), Info{Name: "test"}, Options{MaxInFlight: 1, CacheSize: 0})
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
