package server

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"tpa"
)

// soakRun is the client's account of an open-loop run. requests counts the
// arrivals that were sent; dropped ones never left the client.
type soakRun struct {
	mu                                  sync.Mutex
	requests, ok, shed, errors, dropped int64
	okLatency                           []time.Duration
}

// openLoop drives GET {url}/topk?seed=…&k=10 with uniform seeds over 1,000
// nodes at qps, ramping linearly up from 0 over ramp, for duration. Each
// tick sends the arrivals the schedule owes by then, so a late tick catches
// up rather than thinning the load. An arrival that finds maxInFlight
// requests outstanding is dropped, never delayed: a slow server cannot slow
// the schedule, so the latencies include queueing.
func openLoop(client *http.Client, url string, qps float64, ramp, duration time.Duration, maxInFlight int) *soakRun {
	owed := func(t time.Duration) int64 { // arrivals due t into the run
		s, r := t.Seconds(), ramp.Seconds()
		if s < r {
			return int64(qps * s * s / (2 * r))
		}
		return int64(qps * (s - r/2))
	}
	run := &soakRun{}
	rng := rand.New(rand.NewSource(1))
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	tick := time.NewTicker(time.Duration(float64(time.Second) / qps))
	defer tick.Stop()
	start, sent := time.Now(), int64(0)
	for now := range tick.C {
		t := now.Sub(start)
		if t > duration {
			break
		}
		for ; sent < owed(t); sent++ {
			select {
			case slots <- struct{}{}:
			default:
				run.dropped++
				continue
			}
			run.requests++
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				defer func() { <-slots }()
				run.issue(client, fmt.Sprintf("%s/topk?seed=%d&k=10", url, seed))
			}(rng.Intn(1000))
		}
	}
	wg.Wait()
	return run
}

// issue sends one request and files its outcome: 200 answered, 503 shed,
// anything else (a 500 from a panic, a transport error from a wedged
// connection) an error.
func (r *soakRun) issue(client *http.Client, url string) {
	t0 := time.Now()
	resp, err := client.Get(url)
	latency := time.Since(t0)
	status := 0
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch status {
	case http.StatusOK:
		r.ok++
		r.okLatency = append(r.okLatency, latency)
	case http.StatusServiceUnavailable:
		r.shed++
	default:
		r.errors++
	}
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
	// Every answer waits out delay first, giving the server a known
	// capacity: MaxInFlight / delay QPS.
	watchEngine(t, &engineCalls{delay: delay})
	eng, err := tpa.New(tpa.RandomCommunityGraph(1000, 5000, 8, 3), tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(eng, Info{Nodes: 1000, Edges: 5000, Name: "soak"}, Options{
		MaxInFlight: maxInFlight,
		CacheSize:   0, // cache hits would dodge the paced engine
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// A modest client cap bounds the goroutine count: under -race with
	// every other package's tests contending for CPU, thousands of
	// outstanding requests starve the scheduler and turn the latency tail
	// into a measurement of the test host, not the server.
	run := openLoop(srv.Client(), srv.URL, qps, 500*time.Millisecond, duration, 256)

	if run.errors != 0 {
		t.Errorf("%d responses were neither 200 nor 503", run.errors)
	}
	if run.ok+run.shed+run.errors != run.requests {
		t.Errorf("client counters leak: ok %d + shed %d + errors %d != requests %d",
			run.ok, run.shed, run.errors, run.requests)
	}
	// Genuinely oversubscribed: the limiter had to shed, yet completed work
	// got through.
	if run.shed == 0 {
		t.Error("no shedding at 2x capacity — overload never happened, soak is vacuous")
	}
	if run.ok == 0 {
		t.Fatal("no request succeeded under overload")
	}

	// The server's own books must match the client's view.
	_, stats := get(t, h, "/stats")
	ep := stats["endpoints"].(map[string]interface{})["topk"].(map[string]interface{})
	if got := int64(ep["requests"].(float64)); got != run.requests {
		t.Errorf("server saw %d requests, client sent %d", got, run.requests)
	}
	if got := int64(ep["rejected"].(float64)); got != run.shed {
		t.Errorf("server shed %d, client counted %d", got, run.shed)
	}

	// Shedding keeps answered requests fast. The engine needs 5ms; a p99
	// far beyond that means requests queued instead of being turned away.
	// The bound scales with the run's own median so a CPU-starved test
	// host (full -race suite hammering every core) slows the whole
	// distribution without tripping it — queueing collapse shows up as a
	// heavy tail over whatever the baseline is, starvation shifts p50 too.
	lat := run.okLatency
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
	p50, p99 := ms(0.50), ms(0.99)
	if bound := math.Max(500, 25*p50); p99 > bound {
		t.Errorf("p99 of answered requests %.1fms exceeds %.0fms (p50 %.1fms); admission control failed to protect latency",
			p99, bound, p50)
	}

	t.Logf("soak: %d requests, %d ok, %d shed, %d dropped, p50(ok) %.1fms, p99(ok) %.1fms",
		run.requests, run.ok, run.shed, run.dropped, p50, p99)
}
