package server

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
var promLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)

// parseProm is a minimal Prometheus text-format (0.0.4) parser: it enforces
// the structural rules dashboards depend on — every sample preceded by a
// TYPE declaration for its family, names and labels well-formed, values
// numeric — and returns the samples and declared types.
func parseProm(t *testing.T, body string) ([]promSample, map[string]string) {
	t.Helper()
	types := make(map[string]string)
	var samples []promSample
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE declaration for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		if m[3] != "" {
			for _, pair := range strings.Split(m[3], ",") {
				lm := promLabelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Fatalf("malformed label %q in %q", pair, line)
				}
				s.labels[lm[1]] = lm[2]
			}
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		s.value = v

		// Family = name minus histogram suffixes; it must have been typed.
		family := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(s.name, suf); f != s.name && types[f] == "histogram" {
				family = f
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q appears before any TYPE declaration", line)
		}
		samples = append(samples, s)
	}
	return samples, types
}

// The golden contract: these exact metric families, with these exact
// types, must appear on /metrics. Renaming or retyping one breaks every
// dashboard scraping this server — if this test fails, you are making a
// breaking change; update the docs and dashboards deliberately.
var goldenMetrics = map[string]string{
	"tpa_requests_total":            "counter",
	"tpa_request_errors_total":      "counter",
	"tpa_requests_shed_total":       "counter",
	"tpa_partial_answers_total":     "counter",
	"tpa_request_duration_seconds":  "histogram",
	"tpa_in_flight_requests":        "gauge",
	"tpa_max_in_flight":             "gauge",
	"tpa_graph_queries_total":       "counter",
	"tpa_graph_reloads_total":       "counter",
	"tpa_graph_mutations_total":     "counter",
	"tpa_graph_reindex_iters_total": "counter",
	"tpa_graph_head_skips_total":    "counter",
	"tpa_graph_nodes":               "gauge",
	"tpa_graph_edges":               "gauge",
	"tpa_graph_index_bytes":         "gauge",
	"tpa_graph_error_bound":         "gauge",
	"tpa_cache_hits_total":          "counter",
	"tpa_cache_misses_total":        "counter",
	"tpa_cache_entries":             "gauge",
	"tpa_cache_capacity":            "gauge",

	// Shard / storage layout (sharded and memory-mapped engines). Count and
	// byte-split samples appear for every graph; the per-shard node/edge
	// and per-kernel matvec series appear only under sharded engines,
	// headers always.
	"tpa_shard_count":        "gauge",
	"tpa_shard_nodes":        "gauge",
	"tpa_shard_edges":        "gauge",
	"tpa_shard_matvec_total": "counter",
	"tpa_shard_mmap_bytes":   "gauge",
	"tpa_shard_heap_bytes":   "gauge",

	// Durable-ingest pipeline (EnableIngest): queue depth, WAL lag and
	// auto-compaction visibility. Headers are always present; samples
	// appear per ingest-enabled graph.
	"tpa_ingest_queue_depth":           "gauge",
	"tpa_ingest_queue_capacity":        "gauge",
	"tpa_ingest_enqueued_total":        "counter",
	"tpa_ingest_dropped_total":         "counter",
	"tpa_ingest_rejected_total":        "counter",
	"tpa_ingest_applied_edges_total":   "counter",
	"tpa_ingest_apply_errors_total":    "counter",
	"tpa_ingest_wal_lag_bytes":         "gauge",
	"tpa_ingest_compactions_total":     "counter",
	"tpa_ingest_compact_errors_total":  "counter",
	"tpa_ingest_compact_blocked_total": "counter",
}

func scrapeMetrics(t *testing.T, h *Handler) ([]promSample, map[string]string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return parseProm(t, rec.Body.String())
}

// graphMetric scrapes /metrics and returns the sample of family name for
// graph, failing the test when there is none.
func graphMetric(t *testing.T, h *Handler, name, graph string) float64 {
	t.Helper()
	samples, _ := scrapeMetrics(t, h)
	for _, s := range samples {
		if s.name == name && s.labels["graph"] == graph {
			return s.value
		}
	}
	t.Fatalf("no %s sample for graph %q", name, graph)
	return 0
}

func TestMetricsGoldenFormat(t *testing.T) {
	h := testHandler(t)
	// Exercise every counter class first: hits, misses, errors, queries.
	get(t, h, "/topk?seed=1&k=5")
	get(t, h, "/topk?seed=1&k=5") // cache hit
	get(t, h, "/topk?seed=bogus") // 400
	postJSON(t, h, "/batch", `{"seeds":[2,3],"k":4}`)

	samples, types := scrapeMetrics(t, h)

	for name, typ := range goldenMetrics {
		if got, ok := types[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		} else if got != typ {
			t.Errorf("metric %s declared %s, want %s", name, got, typ)
		}
	}
	for name, typ := range types {
		if _, ok := goldenMetrics[name]; !ok {
			t.Errorf("undocumented metric %s (%s) on /metrics — add it to the golden set and the docs", name, typ)
		}
	}

	byName := func(name string) []promSample {
		var out []promSample
		for _, s := range samples {
			if s.name == name {
				out = append(out, s)
			}
		}
		return out
	}

	// Counters reflect the traffic above.
	reqs := byName("tpa_requests_total")
	var totalReqs float64
	endpoints := make([]string, 0, len(reqs))
	for _, s := range reqs {
		totalReqs += s.value
		endpoints = append(endpoints, s.labels["endpoint"])
	}
	sort.Strings(endpoints)
	if want := []string{"batch", "queryset", "score", "topk"}; !equalStrings(endpoints, want) {
		t.Errorf("endpoint labels %v, want %v", endpoints, want)
	}
	if totalReqs != 4 {
		t.Errorf("tpa_requests_total sums to %v, want 4", totalReqs)
	}
	for _, s := range byName("tpa_request_errors_total") {
		if s.labels["endpoint"] == "topk" && s.value != 1 {
			t.Errorf("topk errors = %v, want 1", s.value)
		}
	}
	for _, s := range byName("tpa_cache_hits_total") {
		if s.labels["graph"] == "default" && s.value != 1 {
			t.Errorf("cache hits = %v, want 1", s.value)
		}
	}
	for _, s := range byName("tpa_graph_nodes") {
		if s.labels["graph"] == "default" && s.value != 200 {
			t.Errorf("graph nodes = %v, want 200", s.value)
		}
	}
}

// Histogram invariants: buckets cumulative and monotone, +Inf present and
// equal to _count, _sum non-negative.
func TestMetricsHistogramInvariants(t *testing.T) {
	h := testHandler(t)
	for i := 0; i < 5; i++ {
		get(t, h, fmt.Sprintf("/topk?seed=%d&k=3", i))
	}
	samples, _ := scrapeMetrics(t, h)

	type key struct{ endpoint string }
	buckets := map[key][]promSample{}
	counts := map[key]float64{}
	sums := map[key]float64{}
	for _, s := range samples {
		k := key{s.labels["endpoint"]}
		switch s.name {
		case "tpa_request_duration_seconds_bucket":
			buckets[k] = append(buckets[k], s)
		case "tpa_request_duration_seconds_count":
			counts[k] = s.value
		case "tpa_request_duration_seconds_sum":
			sums[k] = s.value
		}
	}
	for k, bs := range buckets {
		var infSeen bool
		prevLE := -1.0
		prev := -1.0
		for _, b := range bs {
			le := b.labels["le"]
			if le == "+Inf" {
				infSeen = true
				if b.value != counts[k] {
					t.Errorf("%s: +Inf bucket %v != count %v", k.endpoint, b.value, counts[k])
				}
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", k.endpoint, le)
			}
			if bound <= prevLE {
				t.Errorf("%s: bucket bounds not increasing at le=%v", k.endpoint, bound)
			}
			if b.value < prev {
				t.Errorf("%s: bucket counts not cumulative at le=%v (%v < %v)", k.endpoint, bound, b.value, prev)
			}
			prevLE, prev = bound, b.value
		}
		if !infSeen {
			t.Errorf("%s: histogram missing +Inf bucket", k.endpoint)
		}
		if sums[k] < 0 {
			t.Errorf("%s: negative histogram sum", k.endpoint)
		}
	}
	if k := (key{"topk"}); counts[k] != 5 {
		t.Errorf("topk histogram count %v, want 5", counts[key{"topk"}])
	}
}

// Shed requests must tick the shed counter but stay out of the latency
// histogram.
func TestMetricsShedAccounting(t *testing.T) {
	eng := watchEngine(t, &engineCalls{entered: make(chan struct{}, 1), release: make(chan struct{})})
	h := NewWith(testEngine(t), Info{Name: "test"}, Options{MaxInFlight: 1, CacheSize: 0})
	done := make(chan struct{})
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/topk?seed=1", nil))
		close(done)
	}()
	<-eng.entered
	if rec, _ := get(t, h, "/topk?seed=2"); rec.Code != 503 {
		t.Fatalf("expected shed, got %d", rec.Code)
	}
	close(eng.release)
	<-done

	samples, _ := scrapeMetrics(t, h)
	for _, s := range samples {
		if s.labels["endpoint"] != "topk" {
			continue
		}
		switch s.name {
		case "tpa_requests_total":
			if s.value != 2 {
				t.Errorf("requests_total = %v, want 2", s.value)
			}
		case "tpa_requests_shed_total":
			if s.value != 1 {
				t.Errorf("shed_total = %v, want 1", s.value)
			}
		case "tpa_request_duration_seconds_count":
			if s.value != 1 {
				t.Errorf("histogram count = %v, want 1 (shed request leaked in)", s.value)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
