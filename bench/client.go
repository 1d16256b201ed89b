package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// topK is the k of every query the benchmark sends.
const topK = 10

// request is one HTTP operation together with what a correct answer to it
// must look like.
type request struct {
	method string
	path   string
	body   []byte
	// seeds are the query seeds in request order (one for /topk, the batch
	// for /batch); nil for an edge write.
	seeds []int
	// adds and removes are the edge counts of a write.
	adds, removes int
}

func topkRequest(seed int) request {
	return request{method: http.MethodGet, path: fmt.Sprintf("/topk?seed=%d&k=%d", seed, topK), seeds: []int{seed}}
}

func batchRequest(seeds []int) request {
	body, _ := json.Marshal(map[string]interface{}{"seeds": seeds, "k": topK}) // ints cannot fail to marshal
	return request{method: http.MethodPost, path: "/batch", body: body, seeds: seeds}
}

func edgesRequest(adds, removes [][2]int) request {
	body, _ := json.Marshal(map[string]interface{}{"add": adds, "remove": removes}) // ints cannot fail to marshal
	return request{method: http.MethodPost, path: "/graphs/default/edges", body: body,
		adds: len(adds), removes: len(removes)}
}

// entry is one scored node of an answer.
type entry struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// answer is the union of the response bodies the benchmark reads.
type answer struct {
	// /topk
	Seed    *int            `json:"seed"`
	Results json.RawMessage `json:"results"`
	// /graphs/{name}/edges
	Added        *int  `json:"added"`
	Removed      *int  `json:"removed"`
	Edges        int64 `json:"edges"`
	Compacted    bool  `json:"compacted"`
	Incremental  bool  `json:"incremental"`
	ReindexIters int   `json:"reindex_iters"`
}

// client sends requests to one server over at most conns connections and
// validates every answer.
type client struct {
	base  string
	http  *http.Client
	nodes int
}

func newClient(base string, conns, nodes int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, nodes: nodes}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get fetches a path and decodes its JSON body into v.
func (c *client) get(ctx context.Context, path string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// do sends r and validates the answer. It returns the decoded answer, or an
// error naming the first thing wrong with it.
func (c *client) do(ctx context.Context, r request) (*answer, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, resp.StatusCode, raw)
	}
	return c.validate(r, raw)
}

// validate checks a 200 body against its request.
func (c *client) validate(r request, raw []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("%s: invalid JSON: %w", r.path, err)
	}
	switch {
	case r.seeds == nil:
		if a.Added == nil || a.Removed == nil || *a.Added != r.adds || *a.Removed != r.removes {
			return nil, fmt.Errorf("%s: sent %d adds / %d removes, server applied %v / %v",
				r.path, r.adds, r.removes, deref(a.Added), deref(a.Removed))
		}
	case r.method == http.MethodGet:
		if a.Seed == nil || *a.Seed != r.seeds[0] {
			return nil, fmt.Errorf("%s: answer is for seed %v", r.path, deref(a.Seed))
		}
		var top []entry
		if err := json.Unmarshal(a.Results, &top); err != nil {
			return nil, fmt.Errorf("%s: results: %w", r.path, err)
		}
		if err := c.checkTop(top); err != nil {
			return nil, fmt.Errorf("%s: %w", r.path, err)
		}
	default:
		var per []struct {
			Seed    int     `json:"seed"`
			Results []entry `json:"results"`
		}
		if err := json.Unmarshal(a.Results, &per); err != nil {
			return nil, fmt.Errorf("%s: results: %w", r.path, err)
		}
		if len(per) != len(r.seeds) {
			return nil, fmt.Errorf("%s: %d answers for %d seeds", r.path, len(per), len(r.seeds))
		}
		for i, p := range per {
			if p.Seed != r.seeds[i] {
				return nil, fmt.Errorf("%s: answer %d is for seed %d, want %d", r.path, i, p.Seed, r.seeds[i])
			}
			if err := c.checkTop(p.Results); err != nil {
				return nil, fmt.Errorf("%s: seed %d: %w", r.path, p.Seed, err)
			}
		}
	}
	return &a, nil
}

// checkTop verifies one top-k list: exactly k entries, ids in range, scores
// non-increasing.
func (c *client) checkTop(top []entry) error {
	if len(top) != topK {
		return fmt.Errorf("%d results, want %d", len(top), topK)
	}
	for i, e := range top {
		if e.Node < 0 || e.Node >= c.nodes {
			return fmt.Errorf("node %d outside [0,%d)", e.Node, c.nodes)
		}
		if i > 0 && e.Score > top[i-1].Score {
			return fmt.Errorf("scores increase at rank %d", i)
		}
	}
	return nil
}

func deref(p *int) interface{} {
	if p == nil {
		return "missing"
	}
	return *p
}

// topNodes returns the node ids of a /topk answer, for the recall oracle.
func (a *answer) topNodes() []int {
	var top []entry
	_ = json.Unmarshal(a.Results, &top) // validated already
	ids := make([]int, len(top))
	for i, e := range top {
		ids[i] = e.Node
	}
	return ids
}

// phase is the outcome of one timed phase.
type phase struct {
	latMS     []float64 // per OK operation, ascending after finish()
	p95MS     float64   // steadyP95 of latMS, set by finish()
	doneAt    []float64 // seconds into the phase at which each OK operation completed
	lateMS    []float64 // open loop only: how late each send started
	attempted int
	failed    int
	elapsed   time.Duration
	firstErr  error
	// Edge writes only: what the answers reported — compactions, full
	// (non-incremental) reindexes, propagation steps spent reindexing — and
	// the edge count of the last one.
	compactions, rebuilds, reindexIters int
	edges                               int64
}

func (p *phase) ok() int { return p.attempted - p.failed }

// record adds one operation's outcome; the caller holds whatever lock
// guards p.
func (p *phase) record(start time.Time, lat time.Duration, a *answer, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
	p.doneAt = append(p.doneAt, time.Since(start).Seconds())
	if a.Compacted {
		p.compactions++
	}
	if r := a.Added != nil; r && !a.Incremental {
		p.rebuilds++
	}
	p.reindexIters += a.ReindexIters
	p.edges = a.Edges
}

// rateWindows is how many equal windows a phase is cut into for windowRate.
const rateWindows = 8

// windowRate is the phase's throughput in OK operations per second, taken as
// the median over rateWindows equal windows: a burst of interference from
// elsewhere on the box slows one window, not the figure.
func (p *phase) windowRate() float64 {
	width := p.elapsed.Seconds() / rateWindows
	counts := make([]float64, rateWindows)
	for _, t := range p.doneAt {
		counts[min(int(t/width), rateWindows-1)] += 1 / width
	}
	return median(counts)
}

func (p *phase) finish(start time.Time) {
	p.elapsed = time.Since(start)
	p.p95MS = steadyP95(p.latMS)
	sort.Float64s(p.latMS)
	sort.Float64s(p.lateMS)
}

// closedLoop runs clients callers, each sending its next request only after
// the previous one is answered; next(i) yields the i-th request of the phase
// and done(i) says when to stop (see forDuration and forCount). Latency is
// send to validated answer.
func (c *client) closedLoop(ctx context.Context, clients int, done func(i int) bool, next func(i int) request) *phase {
	var (
		mu  sync.Mutex
		p   phase
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(seq.Add(1)) - 1
				if done(i) {
					return
				}
				r := next(i)
				t0 := time.Now()
				a, err := c.do(ctx, r)
				lat := time.Since(t0)
				mu.Lock()
				p.record(start, lat, a, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.finish(start)
	return &p
}

// forDuration stops a closed loop once d has passed: a timed phase.
func forDuration(d time.Duration) func(int) bool {
	stop := time.Now().Add(d)
	return func(int) bool { return !time.Now().Before(stop) }
}

// forCount stops a closed loop after exactly n requests: a warm-up.
func forCount(n int) func(int) bool { return func(i int) bool { return i >= n } }

// sleepUntil blocks the calling thread until t. The Go runtime's own timers
// fire on whole milliseconds while a process is idle in the network poller,
// which would add up to a millisecond of generator lateness to every
// open-loop request — several times the service time of a cache hit; the
// kernel's nanosleep is good to ~0.1 ms here.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openLoop sends the requests of a fixed arrival schedule: request i is due
// at start+due[i] whatever the server does, at most inflight are
// outstanding, and latency runs from the due time, so a stall is charged to
// every request it delays. Arrivals not started by the end of the phase (the
// last due time plus grace) count as failed.
func (c *client) openLoop(ctx context.Context, inflight int, due []time.Duration, grace time.Duration, next func(i int) request) *phase {
	var (
		mu sync.Mutex
		p  phase
		wg sync.WaitGroup
		// Sized to the whole schedule: the dispatcher must never wait for a
		// worker, or a slow answer would shift the arrivals behind it.
		arrivals = make(chan int, len(due))
	)
	start := time.Now()
	end := start
	if len(due) > 0 {
		end = start.Add(due[len(due)-1] + grace)
	}
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range arrivals {
				at := start.Add(due[i])
				sent := time.Now()
				if sent.After(end) || ctx.Err() != nil {
					mu.Lock()
					p.record(start, 0, nil, fmt.Errorf("open loop: arrival %d not started by phase end", i))
					mu.Unlock()
					continue
				}
				a, err := c.do(ctx, next(i))
				lat := time.Since(at)
				mu.Lock()
				p.record(start, lat, a, err)
				p.lateMS = append(p.lateMS, float64(sent.Sub(at))/float64(time.Millisecond))
				mu.Unlock()
			}
		}()
	}
	for i := range due {
		if ctx.Err() != nil {
			break
		}
		sleepUntil(start.Add(due[i]))
		arrivals <- i
	}
	close(arrivals)
	wg.Wait()
	p.finish(start)
	return &p
}
