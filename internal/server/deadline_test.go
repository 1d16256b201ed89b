package server

import (
	"context"
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
	eng := watchEngine(t, &engineCalls{})
	h := NewWith(testEngine(t), Info{Name: "test"}, Options{})
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
		eng.calls.Store(0)
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
	eng := watchEngine(t, &engineCalls{expire: true})
	served := testEngine(t)
	h := NewWith(served, Info{Name: "test"}, Options{CacheSize: 16})

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
	if body["effective_s"].(float64) != 1 {
		t.Errorf("effective_s = %v, want 1", body["effective_s"])
	}
	if want := partialBound(served); body["residual_bound"].(float64) != want {
		t.Errorf("residual_bound = %v, want %v", body["residual_bound"], want)
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
	eng := watchEngine(t, &engineCalls{})
	served := testEngine(t)
	h := NewWith(served, Info{Name: "test"}, Options{CacheSize: 16})

	rec, body := deadlineGet(t, h, "/topk?seed=3&k=2", "50")
	if rec.Code != http.StatusOK || body["partial"] != false {
		t.Fatalf("code %d partial %v", rec.Code, body["partial"])
	}
	// Cache hit: engine not consulted again, response still annotated as a
	// complete answer at the engine's own S and bound.
	rec, body = deadlineGet(t, h, "/topk?seed=3&k=2", "50")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if eng.calls.Load() != 1 {
		t.Errorf("cache not consulted before the engine (calls=%d)", eng.calls.Load())
	}
	if body["partial"] != false || body["effective_s"].(float64) != 5 || body["residual_bound"].(float64) != served.ErrorBound() {
		t.Errorf("cache-hit meta = partial %v effective_s %v residual_bound %v, want false/5/%v (the engine's own S and bound)",
			body["partial"], body["effective_s"], body["residual_bound"], served.ErrorBound())
	}
}

func TestDeadlineDefaultAndOptOut(t *testing.T) {
	eng := watchEngine(t, &engineCalls{})
	h := NewWith(testEngine(t), Info{Name: "test"}, Options{DefaultDeadline: 100 * time.Millisecond})

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
	watchEngine(t, &engineCalls{expire: true})
	eng := testEngine(t)
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
		if res["residual_bound"].(float64) != partialBound(eng) {
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
	eng := watchEngine(t, &engineCalls{})
	h := NewWith(testEngine(t), Info{Name: "test"}, Options{})
	for _, q := range queryRequests {
		for _, header := range []string{"", "50"} {
			eng.calls.Store(0)
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
// for a request without a budget: the engine's answer and no partial,
// effective_s, residual_bound or partial_count keys.
func TestNoBudgetWireFormat(t *testing.T) {
	eng := testEngine(t)
	one := func(req tpa.Request) tpa.Answer {
		as, err := eng.Answer(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return as[0]
	}
	encode := func(v interface{}) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	entries := func(top []tpa.Entry) string { return encode(toJSON(top)) }
	top1, top0 := one(tpa.Request{Seeds: []int{1}, K: 1}).Top, one(tpa.Request{Seeds: []int{0}, K: 1}).Top
	want := map[string]string{
		"topk":     `{"results":` + entries(top1) + `,"seed":1}`,
		"score":    `{"node":1,"score":` + encode(one(tpa.Request{Seeds: []int{1}}).Scores[1]) + `,"seed":1}`,
		"batch":    `{"k":1,"results":[{"seed":1,"results":` + entries(top1) + `},{"seed":0,"results":` + entries(top0) + `}]}`,
		"queryset": `{"results":` + entries(one(tpa.Request{Seeds: []int{1, 0}, K: 1}).Top) + `,"seeds":[1,0]}`,
	}
	h := NewWith(eng, Info{Name: "test"}, Options{})
	for _, q := range queryRequests {
		endpoint, _, _ := strings.Cut(q.path[strings.LastIndex(q.path, "/")+1:], "?")
		rec := serveQuery(h, q.method, q.path, q.body, "")
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want[endpoint] {
			t.Errorf("%s: body\n  %s\nwant\n  %s", q.path, got, want[endpoint])
		}
	}
}

// partialBound is the residual bound of eng's S' = 1 answer.
func partialBound(eng Engine) float64 {
	return core.TheoremTwoBound(tpa.Defaults().C, 1) + eng.StaleBound()
}

// TestExpiredDeadlineReturnsPartial is the end-to-end guarantee: a budget
// that runs out mid-query yields HTTP 200 with a truncated (partial) answer
// and a finite Theorem-2 bound — never a 500 or an empty response. The
// request arrives with its own context already past its deadline, so the
// 1 ms budget the header adds is spent before the first propagation step on
// any machine, and the engine answers with the head it has (S' = 1: the
// scaled seed plus the stranger tail). A graph of a few thousand nodes is
// enough for that.
func TestExpiredDeadlineReturnsPartial(t *testing.T) {
	g := tpa.RandomCommunityGraph(3000, 30000, 16, 7)
	cfg := tpa.Defaults()
	eng, err := tpa.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng, Info{Nodes: 3000, Edges: 30000, Name: "small"})

	const path = "/topk?seed=42&k=10"
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	req.Header.Set(DeadlineHeader, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := decodeBody(t, rec, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	if body["partial"] != true {
		t.Fatalf("expected a partial answer under an expired budget, got %v", body["partial"])
	}
	fullS, _ := eng.Params()
	effS := int(body["effective_s"].(float64))
	if effS < 1 || effS >= fullS {
		t.Errorf("effective_s = %d, want in [1, %d)", effS, fullS)
	}
	wantBound := core.TheoremTwoBound(cfg.C, effS) + eng.StaleBound()
	if got := body["residual_bound"].(float64); got != wantBound {
		t.Errorf("residual_bound = %v, want %v", got, wantBound)
	}
	if len(body["results"].([]interface{})) == 0 {
		t.Error("partial answer carried no results")
	}
}
