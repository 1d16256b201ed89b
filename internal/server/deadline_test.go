package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tpa"
	"tpa/internal/core"
)

func deadlineGet(t *testing.T, h http.Handler, path, headerMS string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if headerMS != "" {
		req.Header.Set(DeadlineHeader, headerMS)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := decodeBody(t, rec, path)
	return rec, body
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, path string) map[string]interface{} {
	t.Helper()
	var body map[string]interface{}
	if rec.Body.Len() > 0 && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: bad JSON: %v (%s)", path, err, rec.Body.String())
		}
	}
	return body
}

// TestDeadlineHeaderInvalid is the header table: malformed values and
// budgets too large for a time.Duration are 400s; the largest budget that
// fits reaches the engine intact instead of wrapping around to a short (or
// negative) one.
func TestDeadlineHeaderInvalid(t *testing.T) {
	const century = 100 * 365 * 24 * time.Hour
	for _, tc := range []struct {
		header string
		code   int
	}{
		{"abc", http.StatusBadRequest},
		{"-5", http.StatusBadRequest},
		{"1.5", http.StatusBadRequest},
		{"18446744073710", http.StatusBadRequest}, // would wrap to 448µs
		{"18446744073709", http.StatusBadRequest}, // would wrap negative: no deadline
		{"9223372036854", http.StatusOK},          // math.MaxInt64 ns, in ms
	} {
		eng := &fakeEngine{}
		h := NewWith(eng, Info{Name: "test"}, Options{})
		rec, body := deadlineGet(t, h, "/topk?seed=1&k=1", tc.header)
		if rec.Code != tc.code {
			t.Errorf("header %q: code %d, want %d", tc.header, rec.Code, tc.code)
			continue
		}
		if tc.code != http.StatusOK {
			if eng.calls.Load() != 0 {
				t.Errorf("header %q: rejected request reached the engine", tc.header)
			}
			continue
		}
		if b := time.Duration(eng.lastBudget.Load()); b < 2*century {
			t.Errorf("header %q: engine ctx budget %v, want the full ~292 years", tc.header, b)
		}
		if body["partial"] != false || body["effective_s"].(float64) != 5 {
			t.Errorf("header %q: partial %v effective_s %v, want a complete answer", tc.header, body["partial"], body["effective_s"])
		}
	}
}

func TestDeadlineHeaderRoutesAndAnnotates(t *testing.T) {
	eng := &fakeEngine{partial: true}
	h := NewWith(eng, Info{Name: "test"}, Options{CacheSize: 16})

	rec, body := deadlineGet(t, h, "/topk?seed=1&k=1", "50")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	if eng.calls.Load() != 1 {
		t.Fatalf("%d engine calls, want 1", eng.calls.Load())
	}
	if b := time.Duration(eng.lastBudget.Load()); b <= 0 || b > 50*time.Millisecond {
		t.Errorf("ctx budget %v, want (0, 50ms]", b)
	}
	if body["partial"] != true {
		t.Errorf("partial = %v, want true", body["partial"])
	}
	if body["effective_s"].(float64) != 2 {
		t.Errorf("effective_s = %v, want 2", body["effective_s"])
	}
	if body["residual_bound"].(float64) != 0.5 {
		t.Errorf("residual_bound = %v, want 0.5", body["residual_bound"])
	}

	// The partial answer must not have been cached: a second identical
	// request goes back to the engine rather than being served a stale
	// truncation.
	deadlineGet(t, h, "/topk?seed=1&k=1", "50")
	if eng.calls.Load() != 2 {
		t.Errorf("partial answer was cached (calls=%d)", eng.calls.Load())
	}

	// Both responses carried partial answers; the counter must agree.
	_, stats := get(t, h, "/stats")
	ep := stats["endpoints"].(map[string]interface{})["topk"].(map[string]interface{})
	if ep["partial"].(float64) != 2 {
		t.Errorf("partial counter = %v, want 2", ep["partial"])
	}
}

func TestDeadlineCompleteAnswerIsCached(t *testing.T) {
	eng := &fakeEngine{}
	h := NewWith(eng, Info{Name: "test"}, Options{CacheSize: 16})

	rec, body := deadlineGet(t, h, "/topk?seed=3&k=2", "50")
	if rec.Code != http.StatusOK || body["partial"] != false {
		t.Fatalf("code %d partial %v", rec.Code, body["partial"])
	}
	// Cache hit: engine not consulted again, response still annotated as a
	// complete answer at the engine's own S and bound (see fakeEngine).
	rec, body = deadlineGet(t, h, "/topk?seed=3&k=2", "50")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if eng.calls.Load() != 1 {
		t.Errorf("cache not consulted before the engine (calls=%d)", eng.calls.Load())
	}
	if body["partial"] != false || body["effective_s"].(float64) != 5 || body["residual_bound"].(float64) != 0.44 {
		t.Errorf("cache-hit meta = partial %v effective_s %v residual_bound %v, want false/5/0.44 (the engine's own S and bound)",
			body["partial"], body["effective_s"], body["residual_bound"])
	}
}

func TestDeadlineDefaultAndOptOut(t *testing.T) {
	eng := &fakeEngine{}
	h := NewWith(eng, Info{Name: "test"}, Options{DefaultDeadline: 100 * time.Millisecond})

	// No header: the server default applies.
	deadlineGet(t, h, "/topk?seed=1&k=1", "")
	if b := time.Duration(eng.lastBudget.Load()); eng.calls.Load() != 1 || b <= 0 || b > 100*time.Millisecond {
		t.Fatalf("default deadline not applied (calls=%d, budget %v)", eng.calls.Load(), b)
	}
	// Explicit 0 opts this request out of the default.
	rec, body := deadlineGet(t, h, "/topk?seed=2&k=1", "0")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if eng.calls.Load() != 2 || eng.lastBudget.Load() != -1 {
		t.Errorf("header 0: calls=%d, ctx budget %v; want one more call with no deadline", eng.calls.Load(), time.Duration(eng.lastBudget.Load()))
	}
	if _, present := body["partial"]; present {
		t.Errorf("opt-out response carries deadline fields: %v", body)
	}
}

func TestDeadlineAllEndpoints(t *testing.T) {
	eng := &fakeEngine{partial: true}
	h := NewWith(eng, Info{Name: "test"}, Options{})

	if _, body := deadlineGet(t, h, "/score?seed=0&node=1", "50"); body["partial"] != true {
		t.Errorf("/score partial = %v", body["partial"])
	}
	rec, body := postJSONDeadline(t, h, "/queryset", `{"seeds":[0,1],"k":2}`, "50")
	if rec.Code != http.StatusOK || body["partial"] != true {
		t.Errorf("/queryset code %d partial %v", rec.Code, body["partial"])
	}
	rec, body = postJSONDeadline(t, h, "/batch", `{"seeds":[0,1],"k":2}`, "50")
	if rec.Code != http.StatusOK {
		t.Fatalf("/batch code %d", rec.Code)
	}
	if body["partial_count"].(float64) != 2 {
		t.Errorf("/batch partial_count = %v, want 2", body["partial_count"])
	}
	results := body["results"].([]interface{})
	for i, r := range results {
		res := r.(map[string]interface{})
		if res["partial"] != true {
			t.Errorf("/batch result %d not flagged partial: %v", i, res)
		}
		if res["residual_bound"].(float64) != 0.5 {
			t.Errorf("/batch result %d residual_bound = %v", i, res["residual_bound"])
		}
	}
}

func postJSONDeadline(t *testing.T, h http.Handler, path, body, headerMS string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set(DeadlineHeader, headerMS)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, decodeBody(t, rec, path)
}

// queryRequests is one request per query endpoint, in both its bare and
// /graphs/default/ forms.
var queryRequests = []struct{ method, path, body string }{
	{http.MethodGet, "/topk?seed=1&k=1", ""},
	{http.MethodGet, "/graphs/default/topk?seed=1&k=1", ""},
	{http.MethodGet, "/score?seed=1&node=1", ""},
	{http.MethodGet, "/graphs/default/score?seed=1&node=1", ""},
	{http.MethodPost, "/batch", `{"seeds":[1,0],"k":1}`},
	{http.MethodPost, "/graphs/default/batch", `{"seeds":[1,0],"k":1}`},
	{http.MethodPost, "/queryset", `{"seeds":[1,0],"k":1}`},
	{http.MethodPost, "/graphs/default/queryset", `{"seeds":[1,0],"k":1}`},
}

func serveQuery(h http.Handler, method, path, body, headerMS string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if headerMS != "" {
		req.Header.Set(DeadlineHeader, headerMS)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestOneEngineCallPerRequest pins the single serving path: every query
// endpoint makes exactly one engine call per request, whose context has no
// deadline when neither the header nor Options.DefaultDeadline sets one,
// and the request's budget when one does.
func TestOneEngineCallPerRequest(t *testing.T) {
	for _, q := range queryRequests {
		for _, header := range []string{"", "50"} {
			eng := &fakeEngine{}
			h := NewWith(eng, Info{Name: "test"}, Options{})
			rec := serveQuery(h, q.method, q.path, q.body, header)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s header %q: code %d (%s)", q.path, header, rec.Code, rec.Body.String())
			}
			if n := eng.calls.Load(); n != 1 {
				t.Errorf("%s header %q: %d engine calls, want 1", q.path, header, n)
			}
			b := time.Duration(eng.lastBudget.Load())
			if header == "" && b != -1 {
				t.Errorf("%s without a budget: engine ctx has a deadline %v away", q.path, b)
			}
			if header != "" && (b <= 0 || b > 50*time.Millisecond) {
				t.Errorf("%s under a 50ms budget: engine ctx budget %v", q.path, b)
			}
		}
	}
}

// TestNoBudgetWireFormat pins the exact response of every query endpoint
// for a request without a budget: no partial, effective_s, residual_bound
// or partial_count keys.
func TestNoBudgetWireFormat(t *testing.T) {
	want := map[string]string{
		"topk":     `{"results":[{"node":1,"score":1}],"seed":1}`,
		"score":    `{"node":1,"score":0.75,"seed":1}`,
		"batch":    `{"k":1,"results":[{"seed":1,"results":[{"node":1,"score":1}]},{"seed":0,"results":[{"node":0,"score":1}]}]}`,
		"queryset": `{"results":[{"node":1,"score":1}],"seeds":[1,0]}`,
	}
	h := NewWith(&fakeEngine{}, Info{Name: "test"}, Options{})
	for _, q := range queryRequests {
		endpoint, _, _ := strings.Cut(q.path[strings.LastIndex(q.path, "/")+1:], "?")
		rec := serveQuery(h, q.method, q.path, q.body, "")
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want[endpoint] {
			t.Errorf("%s: body\n  %s\nwant\n  %s", q.path, got, want[endpoint])
		}
	}
}

// TestTightDeadlineOnLargeGraphReturnsPartial is the end-to-end guarantee:
// a 1 ms budget against a graph whose propagation steps each cost well over
// 1 ms yields HTTP 200 with a truncated (partial) answer and a finite
// Theorem-2 bound — never a 500 or an empty response.
func TestTightDeadlineOnLargeGraphReturnsPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a ~300k-node graph; skipped in -short")
	}
	// S=16 gives the propagation loop many dense steps, so the per-step
	// context check reliably observes the expired budget mid-flight (with
	// the default S=5 only the final step is expensive, and a query can
	// blow the budget inside one uninterruptible step yet finish complete).
	cfg := tpa.Defaults()
	cfg.S = 16
	cfg.T = 20
	g := tpa.RandomCommunityGraph(300000, 6000000, 16, 7)
	eng, err := tpa.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng, Info{Nodes: 300000, Edges: 6000000, Name: "big"})

	rec, body := deadlineGet(t, h, "/topk?seed=42&k=10", "1")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	if body["partial"] != true {
		t.Fatalf("expected a partial answer under a 1ms budget, got %v", body["partial"])
	}
	fullS, _ := eng.Params()
	effS := int(body["effective_s"].(float64))
	if effS < 1 || effS >= fullS {
		t.Errorf("effective_s = %d, want in [1, %d)", effS, fullS)
	}
	wantBound := core.TheoremTwoBound(cfg.C, effS)
	if got := body["residual_bound"].(float64); got != wantBound {
		t.Errorf("residual_bound = %v, want %v", got, wantBound)
	}
	if len(body["results"].([]interface{})) == 0 {
		t.Error("partial answer carried no results")
	}
}
