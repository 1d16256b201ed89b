package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); got != 10 {
		t.Errorf("percentile(1..10, 0.95) = %v, want 10", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSteadyP95IgnoresOneBadWindow(t *testing.T) {
	// 1,600 samples whose p95 is 95 in every window of 200 ...
	var lat []float64
	for w := 0; w < 8; w++ {
		for i := 1; i <= 200; i++ {
			lat = append(lat, float64((i+1)/2))
		}
	}
	if got := steadyP95(lat); got != 95 {
		t.Fatalf("steadyP95 = %v, want 95", got)
	}
	// ... still is when one window is ten times slower, which moves the
	// plain percentile.
	for i := 400; i < 600; i++ {
		lat[i] *= 10
	}
	if got := steadyP95(lat); got != 95 {
		t.Errorf("steadyP95 with one slow window = %v, want 95", got)
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	if plain := percentile(sorted, 0.95); plain <= 95 {
		t.Errorf("plain p95 = %v: the slow window should have moved it", plain)
	}
	// Too few samples to cut: the plain percentile.
	if got := steadyP95(lat[:150]); got != 72 {
		t.Errorf("steadyP95 of 150 samples = %v, want the plain p95 72", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	// p95 needs 200 samples before ten lie beyond it.
	if got := samplesBeyond(200, 0.95); got != minBeyond {
		t.Errorf("samplesBeyond(200, 0.95) = %d, want %d", got, minBeyond)
	}
	if got := samplesBeyond(199, 0.95); got >= minBeyond {
		t.Errorf("samplesBeyond(199, 0.95) = %d, want fewer than %d", got, minBeyond)
	}
	if got := samplesBeyond(0, 0.95); got != 0 {
		t.Errorf("samplesBeyond(0, 0.95) = %d, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10.2, 9.8, 10.5, 10.1}, 9.875, 10.425},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

func TestCompareAppliesBoundsInTheMetricsDirection(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	qps := metricSpec{Name: "qps", Better: "higher", Bound: 0.05}
	lat := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.05}
	for _, c := range []struct {
		ms   metricSpec
		b    []float64
		want bool
	}{
		{qps, shifted(0.97), true},  // 3% fewer: within 5%
		{qps, shifted(0.90), false}, // 10% fewer
		{qps, shifted(1.50), true},  // better is never a failure
		{lat, shifted(1.03), true},
		{lat, shifted(1.10), false},
		{lat, shifted(0.50), true},
	} {
		if got := compare(c.ms, steady, c.b); got.OK != c.want {
			t.Errorf("compare(%s, ×%v): ok=%v, want %v (worsening %v)", c.ms.Name, c.b[0]/steady[0], got.OK, c.want, got.Worsening)
		}
	}
	// A spread wider than the bound fails every metric but set-up time.
	noisy := []float64{80, 120, 100, 90, 110, 85, 115, 100, 95, 105}
	if compare(lat, noisy, noisy).OK {
		t.Error("a metric whose spread exceeds its bound must fail")
	}
	if !compare(metricSpec{Name: "setup_s", Better: "lower", Bound: 0.05}, noisy, noisy).OK {
		t.Error("setup_s is judged on its medians only")
	}
}

func TestOpenScheduleIsSeededAndBounded(t *testing.T) {
	a := openSchedule(rngFor(7, streamSchedule), 1000, 2*time.Second)
	b := openSchedule(rngFor(7, streamSchedule), 1000, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or past the phase", i, a[i])
		}
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 1000/s over 2 s", n)
	}
}

// A stalled server must inflate the latency of the requests queued behind
// the stall, because they were due on schedule; it must not move the
// schedule.
func TestOpenLoopChargesAStallToTheRequestsItDelays(t *testing.T) {
	const stall = 150 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"seed":1,"results":[`)
		for i := 0; i < topK; i++ {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, `{"node":%d,"score":%g}`, i, 1.0/float64(i+1))
		}
		fmt.Fprint(w, `]}`)
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, 100)
	defer c.close()
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	p := c.openLoop(context.Background(), 1, due, time.Second, func(int) request { return topkRequest(1) })
	if p.failed != 0 || p.attempted != len(due) {
		t.Fatalf("%d of %d failed: %v", p.failed, p.attempted, p.firstErr)
	}
	// Ascending: the stalled request itself, then the three behind it, each
	// charged the rest of the stall from its own due time.
	wantMin := float64(stall-30*time.Millisecond) / float64(time.Millisecond)
	if p.latMS[0] < wantMin {
		t.Errorf("fastest latency %.1f ms: a request queued behind a %v stall was not charged for it", p.latMS[0], stall)
	}
	if late := p.lateMS[len(p.lateMS)-1]; late < wantMin {
		t.Errorf("largest lateness %.1f ms, want ≥ %.1f: the generator did not report how late it ran", late, wantMin)
	}
}

func TestValidateRejectsWrongAnswers(t *testing.T) {
	c := &client{nodes: 100}
	good := `{"seed":5,"results":[{"node":1,"score":0.5},{"node":2,"score":0.4},{"node":3,"score":0.3},{"node":4,"score":0.2},{"node":5,"score":0.1},{"node":6,"score":0.1},{"node":7,"score":0.05},{"node":8,"score":0.04},{"node":9,"score":0.03},{"node":10,"score":0.02}]}`
	if _, err := c.validate(topkRequest(5), []byte(good)); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, body := range map[string]string{
		"wrong seed":        `{"seed":6,"results":[]}`,
		"too few results":   `{"seed":5,"results":[{"node":1,"score":0.5}]}`,
		"not JSON":          `<html>`,
		"scores increase":   `{"seed":5,"results":[{"node":1,"score":0.1},{"node":2,"score":0.4},{"node":3,"score":0.3},{"node":4,"score":0.2},{"node":5,"score":0.1},{"node":6,"score":0.1},{"node":7,"score":0.05},{"node":8,"score":0.04},{"node":9,"score":0.03},{"node":10,"score":0.02}]}`,
		"node out of range": `{"seed":5,"results":[{"node":100,"score":0.5},{"node":2,"score":0.4},{"node":3,"score":0.3},{"node":4,"score":0.2},{"node":5,"score":0.1},{"node":6,"score":0.1},{"node":7,"score":0.05},{"node":8,"score":0.04},{"node":9,"score":0.03},{"node":10,"score":0.02}]}`,
	} {
		if _, err := c.validate(topkRequest(5), []byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	write := edgesRequest([][2]int{{1, 2}}, [][2]int{{3, 4}})
	if _, err := c.validate(write, []byte(`{"added":1,"removed":1,"edges":10}`)); err != nil {
		t.Errorf("good write answer rejected: %v", err)
	}
	if _, err := c.validate(write, []byte(`{"added":1,"removed":0,"edges":10}`)); err == nil {
		t.Error("a write that removed nothing was accepted")
	}
	batch := batchRequest([]int{7, 8})
	if _, err := c.validate(batch, []byte(`{"k":10,"results":[{"seed":8,"results":[]},{"seed":7,"results":[]}]}`)); err == nil {
		t.Error("batch answers out of request order were accepted")
	}
}

func TestLiveEdgesBatchesAreFreshAndExisting(t *testing.T) {
	in, err := makeInputs(graphSpec{"toy", 500, 5}, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := newLiveEdges(in, 3)
	before := len(l.live)
	if before != int(in.g.NumEdges()) || len(l.absent) < 1000 {
		t.Fatalf("%d live edges of %d, %d in the pool", before, in.g.NumEdges(), len(l.absent))
	}
	rng := rngFor(3, streamEdges)
	for round := 0; round < 40; round++ {
		had := make(map[[2]int]bool, len(l.live))
		for _, e := range l.live {
			had[e] = true
		}
		adds, removes := l.batch(rng, 50)
		seen := make(map[[2]int]bool)
		for _, e := range adds {
			if had[e] || e[0] == e[1] || seen[e] {
				t.Fatalf("round %d: add %v existed already, repeats or is a self-loop", round, e)
			}
			seen[e] = true
		}
		for _, e := range removes {
			if !had[e] || seen[e] {
				t.Fatalf("round %d: remove %v did not exist or repeats", round, e)
			}
			seen[e] = true
		}
	}
	if len(l.live) != before {
		t.Errorf("edge count drifted from %d to %d", before, len(l.live))
	}
}
