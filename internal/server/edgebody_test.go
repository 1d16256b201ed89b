package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tpa"
	"tpa/internal/gen"
)

// canonicalEdgeBodies are bodies the byte reader takes.
var canonicalEdgeBodies = []string{
	`{"add":[[1,2]],"remove":[[3,4]]}`,
	`{"remove":[[3,4]],"add":[[1,2],[5,6]]}`,
	`{"add":[[1,2]]}`,
	`{"remove":[[0,199]]}`,
	"{\r\n\t\"add\" :\t[ [ 1 ,\r\n2 ] , [3,4]\t]\r\n}\r\n",
	`{"add":[[-0,-12]]}`,
	`{"add":[]}`,
	`{"add":[],"remove":[]}`,
	`{}`,
	` { } `,
	`{"add":[[999999999999999999,-999999999999999999]]}`,
}

// fallbackEdgeBodies are bodies the byte reader hands to encoding/json,
// well-formed or not.
var fallbackEdgeBodies = []string{
	``,
	` `,
	`null`,
	`[]`,
	`[[1,2]]`,
	`1`,
	`"add"`,
	`{"add":[[1]]}`,
	`{"add":[[1,2,3]]}`,
	`{"add":[[1.0,2]]}`,
	`{"add":[[1e3,2]]}`,
	`{"add":[[1,2E1]]}`,
	`{"add":[[1000000000000000000,2]]}`,
	`{"add":[[99999999999999999999999,2]]}`,
	`{"add":[[01,2]]}`,
	`{"add":[[- 1,2]]}`,
	`{"add":[[+1,2]]}`,
	`{"ADD":[[1,2]]}`,
	`{"Remove":[[1,2]]}`,
	`{"\u0061dd":[[1,2]]}`,
	`{"add":[[1,2]],"x":1}`,
	`{"add":[[1,2]],"add":[[3,4]]}`,
	`{"add":[],"add":[[3,4]]}`,
	`{"add":null}`,
	`{"add":[[1,2]]} x`,
	`{"add":[[1,2]]}{}`,
	`{"add":[[1,2]],}`,
	`{"add":[[1,2],]}`,
	`{"add":[[1,2]]`,
	`{"add":[[1,2`,
	`{"add"`,
	`{`,
	`{"add":[["1",2]]}`,
	`{"add":[[true,2]]}`,
	"\ufeff{\"add\":[[1,2]]}",
	"{\"add\":[[1,2]]}\x00",
	"{\"add\":\v[[1,2]]}",
}

// serveDecode runs decode on body as the handler would and returns the
// recorded response and the decoded request, nil when decode refused it.
func serveDecode(body []byte, decode func(http.ResponseWriter, *http.Request, *mutateRequest) bool) (*httptest.ResponseRecorder, *mutateRequest) {
	rec := httptest.NewRecorder()
	var req mutateRequest
	if !decode(rec, httptest.NewRequest(http.MethodPost, "/graphs/default/edges", bytes.NewReader(body)), &req) {
		return rec, nil
	}
	return rec, &req
}

func liveDecode(w http.ResponseWriter, r *http.Request, req *mutateRequest) bool {
	return decodeRequest(w, r, req)
}

// FuzzEdgeBody: decodeEdges answers every body as the streaming
// encoding/json decode does — same status, same response body, same
// decoded lists, nil and empty kept apart. maxBody is lowered so the
// over-limit answers are reachable, and edgeProbe so the checks made while
// the body is still being read run on bodies that short.
func FuzzEdgeBody(f *testing.F) {
	oldMax, oldProbe := maxBody, edgeProbe
	maxBody, edgeProbe = 96, 16
	f.Cleanup(func() { maxBody, edgeProbe = oldMax, oldProbe })
	for _, s := range canonicalEdgeBodies {
		f.Add([]byte(s))
	}
	for _, s := range fallbackEdgeBodies {
		f.Add([]byte(s))
	}
	// Over the limit: a value still open at the cap (413), and a complete
	// one followed by more than the cap (decoded: the stream never reads on).
	f.Add([]byte(`{"add":[` + strings.Repeat(`[1,2],`, 20) + `[1,2]]}`))
	f.Add([]byte(`{"add":[[1,2]]}` + strings.Repeat(" ", 100)))
	f.Add([]byte(`{"add":[[1,2]]}` + strings.Repeat("x", 100)))
	f.Fuzz(func(t *testing.T, body []byte) {
		gotRec, got := serveDecode(body, decodeEdges)
		wantRec, want := serveDecode(body, liveDecode)
		if gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
			t.Fatalf("body %q: answered %d %q, want %d %q", body,
				gotRec.Code, gotRec.Body.String(), wantRec.Code, wantRec.Body.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %#v, want %#v", body, got, want)
		}
	})
}

// TestEdgeBodyShape pins which bodies take the byte reader, so the fuzz
// target's agreement cannot come from a reader that refuses everything.
func TestEdgeBodyShape(t *testing.T) {
	for _, s := range canonicalEdgeBodies {
		if ok, _ := parseEdgeBody([]byte(s), new(mutateRequest)); !ok {
			t.Errorf("%q: not read as canonical", s)
		}
	}
	for _, s := range fallbackEdgeBodies {
		if ok, _ := parseEdgeBody([]byte(s), new(mutateRequest)); ok {
			t.Errorf("%q: read as canonical, want the encoding/json fallback", s)
		}
	}
	// The two lists share one backing array: growing one must not
	// overwrite the other.
	var req mutateRequest
	if ok, _ := parseEdgeBody([]byte(`{"add":[[1,2]],"remove":[[3,4]]}`), &req); !ok {
		t.Fatal("not canonical")
	}
	_ = append(req.Add, [2]int{9, 9})
	if req.Remove[0] != [2]int{3, 4} {
		t.Fatalf("remove = %v after appending to add", req.Remove)
	}
}

// TestEdgeBodyPrefixes: every prefix of a canonical body may still grow
// into one, so the checks decodeEdges makes while reading never hand a
// canonical body to encoding/json; a byte that fits no canonical body is
// seen as soon as it is read; and the check allocates nothing.
func TestEdgeBodyPrefixes(t *testing.T) {
	for _, s := range canonicalEdgeBodies {
		for i := 0; i <= len(s); i++ {
			if _, more := parseEdgeBody([]byte(s[:i]), nil); !more {
				t.Errorf("%q: prefix %q reported as no canonical body's", s, s[:i])
			}
		}
	}
	for _, s := range []string{`[`, ` null`, `{"x"`, `{"ADD"`, `{"add":[[1.`, `{"add":[[01,`,
		`{"add":[[1,2,`, `{"add":[],"add":[`, `{"add":[[1,2]]} x`, `{"add":[[1,2]],"remove":[[3,4]]}{`} {
		if ok, more := parseEdgeBody([]byte(s), nil); ok || more {
			t.Errorf("%q: ok %v, more %v; want a misfit", s, ok, more)
		}
	}
	b := []byte(canonicalEdgeBodies[0])
	if n := testing.AllocsPerRun(10, func() { parseEdgeBody(b, nil) }); n != 0 {
		t.Errorf("scan-only check allocates %v times", n)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestEdgeBodyBoundedRead: a body at the cap that stops fitting the
// canonical shape early is neither read to the cap nor allowed to size
// anything by its length: it allocates less than its own size, where
// sizing the pair array by the body's '[' count alone would take sixteen
// times it. A misfit after a long canonical prefix is read only to about
// twice its offset.
func TestEdgeBodyBoundedRead(t *testing.T) {
	old := maxBody
	maxBody = 1 << 20
	defer func() { maxBody = old }()
	pairs := strings.Repeat(`[1,2],`, 100_000/6)
	for _, s := range []string{
		strings.Repeat("[", int(maxBody)),
		"{" + strings.Repeat("[", int(maxBody)-1),
		`{"add":[` + pairs + "x" + strings.Repeat(" ", int(maxBody)-len(pairs)-9),
	} {
		body := &countingReader{r: strings.NewReader(s)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		decodeEdges(rec, httptest.NewRequest(http.MethodPost, "/graphs/default/edges", body), new(mutateRequest))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%.20q...: code %d, want 400", s, rec.Code)
		}
		if body.n > 4*edgeProbe {
			t.Errorf("%.20q...: read %d of %d bytes, want at most %d", s, body.n, len(s), 4*edgeProbe)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(s)) {
			t.Errorf("%.20q...: allocated %d bytes for a %d-byte body", s, alloc, len(s))
		}
	}
}

// TestMutateCanonicalAndFallbackAgree posts one write in its canonical and
// in a fallback spelling to twin graphs: both apply the same edges.
func TestMutateCanonicalAndFallbackAgree(t *testing.T) {
	for _, c := range []struct {
		body      string
		canonical bool
	}{
		{`{"add":[[1,150],[2,151]],"remove":[[3,4]]}`, true},
		{`{"add":[[1,150],[2,151]],"remove":[[3,4]],"note":"unknown keys are ignored"}`, false},
	} {
		if got, _ := parseEdgeBody([]byte(c.body), new(mutateRequest)); got != c.canonical {
			t.Fatalf("%q: canonical = %v, want %v", c.body, got, c.canonical)
		}
		rec, resp := postJSON(t, testHandler(t), "/graphs/default/edges", c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: code = %d: %s", c.body, rec.Code, rec.Body.String())
		}
		if resp["added"].(float64) != 2 {
			t.Errorf("%q: added = %v, want 2", c.body, resp["added"])
		}
	}
	// The empty-mutation check still follows the decode on both paths.
	for _, body := range []string{`{}`, `{"add":[],"remove":[]}`, `null`, `{"x":1}`} {
		rec, resp := postJSON(t, testHandler(t), "/graphs/default/edges", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(resp["error"]), "empty mutation") {
			t.Errorf("%q: code = %d %v, want 400 empty mutation", body, rec.Code, resp["error"])
		}
	}
}

// BenchmarkServeEdges chains b.N edge writes through Handler.ServeHTTP at
// the edge-churn workload's shape: a 10k-node block model and 500 adds
// plus 500 removes per write, drawn from a live/absent edge pool so the
// graph keeps its size and structure however long the chain runs. It
// reports the share of writes that skipped the head and the operator
// applications per write next to ns/op, which covers the body decode, the
// rebuild, the reindex and the engine swap.
func BenchmarkServeEdges(b *testing.B) {
	const nodes, communities, perWrite = 10_000, 5, 500
	sbm := func(seed int64) *tpa.Graph {
		return gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: communities, AvgOutDeg: 12, PIn: 0.9, Seed: seed})
	}
	g, other := sbm(1), sbm(2)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	var live, absent [][2]int
	for u := 0; u < nodes; u++ {
		for _, v := range g.OutNeighbors(u) {
			live = append(live, [2]int{u, int(v)})
		}
		for _, v := range other.OutNeighbors(u) {
			if !g.HasEdge(u, int(v)) {
				absent = append(absent, [2]int{u, int(v)})
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	take := func(pool *[][2]int) [][2]int {
		p := *pool
		out := make([][2]int, perWrite)
		for i := range out {
			j := rng.Intn(len(p))
			out[i], p[j] = p[j], p[len(p)-1]
			p = p[:len(p)-1]
		}
		*pool = p
		return out
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		removes, adds := take(&live), take(&absent)
		live, absent = append(live, adds...), append(absent, removes...)
		if bodies[i], err = json.Marshal(mutateRequest{Add: adds, Remove: removes}); err != nil {
			b.Fatal(err)
		}
	}
	h := New(eng, Info{Nodes: nodes, Edges: g.NumEdges()})
	e := h.graphs["default"]
	b.ResetTimer()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs/default/edges", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("write: %d %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.headSkips.Load())/float64(b.N), "skips/op")
	b.ReportMetric(float64(e.reindexIters.Load())/float64(b.N), "applications/op")
}
