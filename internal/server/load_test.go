package server

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"tpa/internal/core"
	"tpa/internal/loadgen"
	"tpa/internal/sparse"
)

// paceEngine answers real-shaped top-k results after a fixed delay, giving
// the soak test a server with a known capacity: MaxInFlight / delay QPS.
type paceEngine struct {
	fakeEngine
	delay time.Duration
}

func (p *paceEngine) TopKDeadline(ctx context.Context, seed, k int) ([]sparse.Entry, core.QueryMeta, error) {
	time.Sleep(p.delay)
	out := make([]sparse.Entry, k)
	for i := range out {
		out[i] = sparse.Entry{Index: (seed + i) % 1000, Score: 1 / float64(i+1)}
	}
	return out, p.meta(), nil
}

// TestServeUnderLoad is the soak test: an open-loop load run at roughly 2x
// the server's admission capacity. The contract under overload:
//
//   - every request gets 200 or 503 — no panics, no 500s, no hangs;
//   - counters conserve on both sides: client ok+shed+errors == requests,
//     and the server's own counters agree with the client's;
//   - answered requests stay fast (shedding protects the p99, which is the
//     entire point of admission control).
//
// Run under -race in CI; skipped in -short (it holds the wall clock ~2s).
func TestServeUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak; skipped in -short")
	}
	const (
		maxInFlight = 4
		delay       = 5 * time.Millisecond
		// Server capacity ≈ maxInFlight/delay = 800 QPS; drive 2x.
		qps      = 1600.0
		duration = 2 * time.Second
	)
	eng := &paceEngine{delay: delay}
	h := NewWith(eng, Info{Nodes: 1000, Edges: 5000, Name: "soak"}, Options{
		MaxInFlight: maxInFlight,
		CacheSize:   0, // cache hits would dodge the paced engine
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	runner, err := loadgen.New(loadgen.Config{
		URL:      srv.URL,
		QPS:      qps,
		Duration: duration,
		Ramp:     500 * time.Millisecond,
		ZipfS:    1.0,
		Seeds:    1000,
		K:        10,
		// A modest client cap bounds the goroutine count: under -race with
		// every other package's tests contending for CPU, thousands of
		// outstanding requests starve the scheduler and turn the latency
		// tail into a measurement of the test host, not the server.
		MaxInFlight: 256,
		Seed:        1,
		Client:      srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Only 200s and 503s: anything else (500 from a panic, a transport
	// error from a wedged connection) lands in Errors.
	if rep.Errors != 0 {
		t.Errorf("%d responses were neither 200 nor 503 (error_rate %.4f)", rep.Errors, rep.ErrorRate)
	}
	if rep.OK+rep.Shed+rep.Errors != rep.Requests {
		t.Errorf("client counters leak: ok %d + shed %d + errors %d != requests %d",
			rep.OK, rep.Shed, rep.Errors, rep.Requests)
	}
	// Genuinely oversubscribed: the limiter had to shed, yet completed work
	// got through.
	if rep.Shed == 0 {
		t.Error("no shedding at 2x capacity — overload never happened, soak is vacuous")
	}
	if rep.OK == 0 {
		t.Error("no request succeeded under overload")
	}

	// The server's own books must match the client's view.
	_, stats := get(t, h, "/stats")
	ep := stats["endpoints"].(map[string]interface{})["topk"].(map[string]interface{})
	if got := int64(ep["requests"].(float64)); got != rep.Requests {
		t.Errorf("server saw %d requests, client sent %d", got, rep.Requests)
	}
	if got := int64(ep["rejected"].(float64)); got != rep.Shed {
		t.Errorf("server shed %d, client counted %d", got, rep.Shed)
	}

	// Shedding keeps answered requests fast. The engine needs 5ms; a p99
	// far beyond that means requests queued instead of being turned away.
	// The bound scales with the run's own median so a CPU-starved test
	// host (full -race suite hammering every core) slows the whole
	// distribution without tripping it — queueing collapse shows up as a
	// heavy tail over whatever the baseline is, starvation shifts p50 too.
	bound := math.Max(500, 25*rep.LatencyOK.P50)
	if p99 := rep.LatencyOK.P99; p99 > bound {
		t.Errorf("p99 of answered requests %.1fms exceeds %.0fms (p50 %.1fms); admission control failed to protect latency",
			p99, bound, rep.LatencyOK.P50)
	}

	t.Logf("soak: %d requests, %d ok, %d shed, %d dropped, achieved %.0f/%.0f QPS, p99(ok) %.1fms",
		rep.Requests, rep.OK, rep.Shed, rep.Dropped, rep.AchievedQPS, rep.TargetQPS, rep.LatencyOK.P99)
}
