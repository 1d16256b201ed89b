package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tpa"
	"tpa/internal/graph"
)

// checkSeeds is how many seeded queries the accuracy oracles compare
// against exact RWR.
const checkSeeds = 32

// cheapSetups is the time within which set-ups beyond the least number are
// still worth repeating.
const cheapSetups = 2 * time.Second

// sizing holds every size a workload depends on, so the smoke test can run
// the same code at toy scale.
type sizing struct {
	cold, mid, churn graphSpec
	hotSet           int // distinct nodes topk-hot requests
	coldWarm         int // warm-up requests where the cache must stay cold
	batchSeeds       int // seeds per /batch request
	churnEdges       int // adds (and removes) per write
	setups           int // least set-ups per measured run; the median is reported
	minCompactions   int // per 10 s of edge-churn
	// Open-loop arrival rates, requests per second.
	coldRate, hotRate, readRate float64
	// triadBytes is the total size of the bandwidth probe's three arrays;
	// 0 means four times the last-level cache.
	triadBytes int64
}

var fullSize = sizing{
	cold:       graphSpec{"sbm-200k", 200_000, 100},
	mid:        graphSpec{"sbm-100k", 100_000, 50},
	churn:      graphSpec{"sbm-10k", 10_000, 5},
	hotSet:     1024,
	coldWarm:   64,
	batchSeeds: 8,
	churnEdges: 500,
	setups:     3,
	// A compaction every ~10 writes at the default staleness of 0.1.
	minCompactions: 8,
	// Low enough that under Poisson arrivals about one request in twenty
	// waits for one of the two connections.
	coldRate: 50,
	hotRate:  1000,
	readRate: 50,
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name      string
	graph     graphSpec
	buildArgs []string // extra `tpad build` flags
	snapshot  string   // snapshot file name; the extension selects the container
	serveArgs []string // extra `tpad serve` flags
	// clients is the number of closed-loop callers.
	clients int
	// closedShare is the share of -seconds spent in the closed-loop phase,
	// which every end-to-end figure comes from; the rest is an open-loop
	// phase at openRate requests per second, reported beside them. On
	// edge-churn openRate is the background reader's.
	closedShare float64
	openRate    float64
	// Validity limits on the server's own cache hit rate over the timed
	// phases.
	minHitRate, maxHitRate float64
	// minCompactions is how many compactions 10 s of writes must cause.
	minCompactions int
	// endpoint is the child's /stats entry the operation's reads land in.
	endpoint string
	// closeAccount demands that the traced pass's self times add up to
	// tpa.topk_us within 10%: the workload where the online phase is the
	// whole request.
	closeAccount bool
}

func workloads(sz sizing) []workload {
	return []workload{
		{name: "topk-cold", graph: sz.cold, snapshot: "g.tpas", serveArgs: []string{"-cache", "4096"},
			clients: 2, closedShare: 0.5, openRate: sz.coldRate, maxHitRate: 0.02, endpoint: "topk", closeAccount: true},
		// One caller: on a cache hit the generator costs more CPU than the
		// server, and two callers plus the server oversubscribe a two-CPU
		// box, which makes throughput a property of the scheduler.
		{name: "topk-hot", graph: sz.mid, snapshot: "g.tpas", serveArgs: []string{"-cache", "4096"},
			clients: 1, closedShare: 0.5, openRate: sz.hotRate, minHitRate: 0.98, maxHitRate: 1, endpoint: "topk"},
		{name: "batch-f32-mmap", graph: sz.mid, snapshot: "g.tpam",
			buildArgs: []string{"-precision", "float32", "-shards", "2", "-mmap"},
			serveArgs: []string{"-cache", "0"}, clients: 2, closedShare: 1, maxHitRate: 0, endpoint: "batch"},
		// Every write swaps in a fresh cache whose counters restart, so any
		// hit rate is valid here.
		{name: "edge-churn", graph: sz.churn, snapshot: "g.tpas", serveArgs: []string{"-cache", "4096"},
			clients: 1, closedShare: 1, openRate: sz.readRate, maxHitRate: 1, endpoint: "topk",
			minCompactions: sz.minCompactions},
	}
}

// measured is everything the measured pass learns about one workload.
type measured struct {
	in        *inputs
	setupS    []float64 // one per set-up
	buildS    float64   // of the set-up that served
	bootMS    float64
	warmS     float64
	snapBytes int64

	closed, open *phase // the operation's phases (open nil when closed only)
	reader       *phase // edge-churn's background reads

	serverCPU, selfCPU float64 // seconds over the timed phases
	rssMB              float64
	recall             float64
	statsBefore        serverStats
	statsAfter         serverStats
	firstSeeds         []int
	problems           []string
	// checks are the accuracy oracles' seeds; exact holds their exact RWR
	// vectors on the generated graph (nil on edge-churn, whose oracle is
	// the mutated graph).
	checks []int
	exact  [][]float64
}

// serverStats is the part of the child's GET /stats the benchmark reads.
type serverStats struct {
	Endpoints map[string]endpointStats `json:"endpoints"`
	Cache     struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

type endpointStats struct {
	Requests     int64   `json:"requests"`
	Rejected     int64   `json:"rejected"`
	AvgLatencyUS float64 `json:"avg_latency_us"`
}

// completed is the number of requests avg_latency_us is the mean of.
func (e endpointStats) completed() float64 { return float64(e.Requests - e.Rejected) }

// runner carries what every step of a run needs.
type runner struct {
	tpad    string
	dir     string // scratch directory of this run, removed afterwards
	seed    int64
	seconds float64
	sz      sizing
	conns   int
}

// traffic is a workload's request streams, all fixed by the seed before any
// request is sent.
type traffic struct {
	warm    []request         // sent once per set-up, before timing
	op      func(int) request // the timed operation, by sequence number
	read    func(int) request // edge-churn's background reads
	live    *liveEdges        // edge-churn's edge set
	first16 []int
}

// newTraffic builds the request streams of w over graph g.
func (r *runner) newTraffic(w workload, in *inputs) traffic {
	n := in.g.NumNodes()
	rng := rngFor(r.seed, streamRequests)
	var t traffic
	switch w.name {
	case "topk-cold":
		// Without replacement: no seed repeats, so no request can hit the
		// cache and every one runs the full online phase.
		perm := rng.Perm(n)
		t.first16 = perm[:16]
		for _, s := range perm[:r.sz.coldWarm] {
			t.warm = append(t.warm, topkRequest(s))
		}
		rest := perm[r.sz.coldWarm:]
		t.op = func(i int) request { return topkRequest(rest[i%len(rest)]) }
	case "topk-hot":
		for _, s := range rng.Perm(n)[:r.sz.hotSet] {
			t.warm = append(t.warm, topkRequest(s))
		}
		z := newZipf(len(t.warm), 1.0)
		// Ranks into the hot set; long enough for the fastest server this
		// box could be, and wraps after.
		stream := make([]int32, 1<<17)
		for i := range stream {
			stream[i] = int32(z.sample(rng))
		}
		for _, rank := range stream[:16] {
			t.first16 = append(t.first16, t.warm[rank].seeds[0])
		}
		t.op = func(i int) request { return t.warm[stream[i%len(stream)]] }
	case "batch-f32-mmap":
		stream := make([]request, 4096)
		for i := range stream {
			stream[i] = batchRequest(distinctSeeds(rng, n, r.sz.batchSeeds))
		}
		t.first16 = stream[0].seeds
		t.warm = stream[:8]
		t.op = func(i int) request { return stream[8+i%(len(stream)-8)] }
	case "edge-churn":
		t.live = newLiveEdges(in, r.seed)
		erng := rngFor(r.seed, streamEdges)
		t.op = func(int) request { return edgesRequest(t.live.batch(erng, r.sz.churnEdges)) }
		rrng := rngFor(r.seed, streamReader)
		reads := uniformSeeds(rrng, n, 1<<14)
		t.first16 = reads[:16]
		for _, s := range uniformSeeds(rng, n, r.sz.coldWarm) {
			t.warm = append(t.warm, topkRequest(s))
		}
		t.read = func(i int) request { return topkRequest(reads[i%len(reads)]) }
	}
	return t
}

// setUp builds the snapshot, boots the server and sends the warm-up: the
// whole of what setup_s times.
func (r *runner) setUp(ctx context.Context, w workload, in *inputs, t traffic, m *measured) (*child, *client, error) {
	snap := filepath.Join(r.dir, w.snapshot)
	start := time.Now()
	args := append([]string{"-graph", in.path, "-o", snap}, w.buildArgs...)
	build, err := runBuild(ctx, r.tpad, args)
	if err != nil {
		return nil, nil, err
	}
	srv, boot, err := startServer(ctx, r.tpad, append([]string{"-graph", snap}, w.serveArgs...))
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base, r.conns, in.g.NumNodes())
	warmStart := time.Now()
	warm := c.closedLoop(ctx, r.conns, forCount(len(t.warm)), func(i int) request { return t.warm[i] })
	if warm.failed > 0 {
		c.close()
		srv.stop()
		return nil, nil, fmt.Errorf("warm-up: %d of %d requests failed: %v\n%s",
			warm.failed, warm.attempted, warm.firstErr, srv.stderr.String())
	}
	m.setupS = append(m.setupS, time.Since(start).Seconds())
	m.buildS, m.bootMS, m.warmS = build.Seconds(), float64(boot)/float64(time.Millisecond), time.Since(warmStart).Seconds()
	if st, err := os.Stat(snap); err == nil {
		m.snapBytes = st.Size()
	}
	return srv, c, nil
}

// measure runs the measured pass of one workload: inputs, oracles, set-up
// (setups times, the last one serving), the timed phases with tracing off,
// and the checks on what the server answered.
func (r *runner) measure(ctx context.Context, w workload) (*measured, error) {
	in, err := makeInputs(w.graph, r.seed, r.dir)
	if err != nil {
		return nil, err
	}
	n := in.g.NumNodes()
	m := &measured{in: in, checks: uniformSeeds(rngFor(r.seed, streamCheck), n, checkSeeds)}
	t := r.newTraffic(w, in)
	m.firstSeeds = t.first16
	if t.live == nil {
		// Before the server starts, so the oracle never competes with it.
		if m.exact, err = exactScores(in.g, m.checks); err != nil {
			return nil, err
		}
	}

	var srv *child
	var c *client
	// A cheap set-up is repeated more often, so that a 70 ms figure is as
	// steady as a 2 s one.
	setupStart := time.Now()
	for i := 0; i < r.sz.setups || (i < 3*r.sz.setups && time.Since(setupStart) < cheapSetups); i++ {
		if srv != nil {
			c.close()
			srv.stop()
		}
		if srv, c, err = r.setUp(ctx, w, in, t, m); err != nil {
			return nil, err
		}
	}
	defer func() {
		c.close()
		srv.stop()
	}()
	fail := func(err error) (*measured, error) {
		return nil, fmt.Errorf("%w\n--- tpad serve stderr ---\n%s", err, srv.stderr.String())
	}

	if err := c.get(ctx, "/stats", &m.statsBefore); err != nil {
		return fail(err)
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return fail(err)
	}
	self0 := selfCPUSeconds()

	total := time.Duration(r.seconds * float64(time.Second))
	closedDur := time.Duration(float64(total) * w.closedShare)
	var reading sync.WaitGroup
	if t.read != nil {
		// A reader on a schedule beside the closed loop.
		due := openSchedule(rngFor(r.seed, streamSchedule), w.openRate, closedDur)
		reading.Add(1)
		go func() {
			defer reading.Done()
			m.reader = c.openLoop(ctx, 1, due, time.Second, t.read)
		}()
	}
	m.closed = c.closedLoop(ctx, w.clients, forDuration(closedDur), t.op)
	reading.Wait()
	if t.read == nil && w.openRate > 0 {
		due := openSchedule(rngFor(r.seed, streamSchedule), w.openRate, total-closedDur)
		base := m.closed.attempted // continue the stream where the closed loop stopped
		m.open = c.openLoop(ctx, r.conns, due, time.Second, func(i int) request { return t.op(base + i) })
	}

	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return fail(err)
	}
	m.serverCPU, m.selfCPU = cpu1-cpu0, selfCPUSeconds()-self0
	if m.rssMB, err = srv.peakRSSMB(); err != nil {
		return fail(err)
	}
	if err := srv.alive(); err != nil {
		return fail(err)
	}
	if err := c.get(ctx, "/stats", &m.statsAfter); err != nil {
		return fail(err)
	}

	exact := m.exact
	if t.live != nil {
		// The oracle for a mutated graph is the benchmark's own edge set.
		if got, want := m.closed.edges, int64(len(t.live.live)); got != want {
			m.problems = append(m.problems, fmt.Sprintf("server reports %d edges after the last write, the benchmark's edge set has %d", got, want))
		}
		if exact, err = exactScores(graph.FromEdges(n, t.live.live), m.checks); err != nil {
			return fail(err)
		}
	}
	for i, s := range m.checks {
		a, err := c.do(ctx, topkRequest(s))
		if err != nil {
			return fail(fmt.Errorf("recall check: %w", err))
		}
		var want []int
		for _, e := range tpa.TopKOf(exact[i], topK) {
			want = append(want, e.Index)
		}
		m.recall += overlap(a.topNodes(), want) / float64(len(m.checks))
	}
	r.validate(w, m)
	return m, nil
}

// validate records every way the timed phases fell short of a valid run.
func (r *runner) validate(w workload, m *measured) {
	bad := func(format string, args ...interface{}) {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
	for name, p := range map[string]*phase{"closed": m.closed, "open": m.open, "reader": m.reader} {
		if p != nil && p.failed > 0 {
			bad("%s phase: %d of %d operations failed, first: %v", name, p.failed, p.attempted, p.firstErr)
		}
	}
	if got := samplesBeyond(len(m.closed.latMS), 0.95); got < minBeyond {
		bad("p95 has %d samples beyond it (of %d), want ≥%d", got, len(m.closed.latMS), minBeyond)
	}
	if shed := m.shed(); shed != 0 {
		bad("server shed %v requests", shed)
	}
	if hr := m.hitRate(); hr < w.minHitRate || hr > w.maxHitRate {
		bad("cache hit rate %.4f outside [%v, %v]", hr, w.minHitRate, w.maxHitRate)
	}
	if want := int(float64(w.minCompactions) * r.seconds / 10); m.closed.compactions < want {
		bad("%d compactions, want ≥%d", m.closed.compactions, want)
	}
}

// statsDelta is f(after) − f(before) of the child's /stats.
func (m *measured) statsDelta(f func(serverStats) float64) float64 {
	return f(m.statsAfter) - f(m.statsBefore)
}

// shed is how many requests the child turned away with 503 during the timed
// phases.
func (m *measured) shed() float64 {
	return m.statsDelta(func(s serverStats) float64 {
		var n int64
		for _, e := range s.Endpoints {
			n += e.Rejected
		}
		return float64(n)
	})
}

// hitRate is the child's cache hit rate over the timed phases.
func (m *measured) hitRate() float64 {
	hits := m.statsDelta(func(s serverStats) float64 { return float64(s.Cache.Hits) })
	misses := m.statsDelta(func(s serverStats) float64 { return float64(s.Cache.Misses) })
	if hits+misses <= 0 {
		return 0
	}
	return hits / (hits + misses)
}

// exactScores returns the exact RWR vector of each seed, computed two at a
// time.
func exactScores(g *tpa.Graph, seeds []int) ([][]float64, error) {
	out := make([][]float64, len(seeds))
	errs := make([]error, len(seeds))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, s int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = tpa.Exact(g, s, tpa.Defaults())
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exact RWR: %w", err)
		}
	}
	return out, nil
}

// overlap is |a ∩ b| / |b|.
func overlap(a, b []int) float64 {
	in := make(map[int]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	hit := 0
	for _, x := range a {
		if in[x] {
			hit++
		}
	}
	return float64(hit) / float64(len(b))
}

// result turns the measured pass into named metrics.
func (m *measured) result(w workload, seed int64, seconds float64) *result {
	lat := m.closed.latMS
	ops := m.closed.ok()
	attempted, failed := m.closed.attempted, m.closed.failed
	for _, p := range []*phase{m.open, m.reader} {
		if p != nil {
			attempted += p.attempted
			failed += p.failed
		}
	}
	if m.open != nil {
		ops += m.open.ok()
	}
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Problems: m.problems,
		Attempted: attempted, Failed: failed,
		Graph: m.in.report, GraphName: m.in.spec.Name, FirstSeeds: m.firstSeeds,
		Samples: map[string]int{"setup_s": len(m.setupS), "qps": m.closed.ok(),
			"p50_ms": len(lat), "p95_ms": len(lat), "cpu_ms_per_req": ops, "recall_at_10": len(m.checks)},
		EndToEnd: map[string]metric{
			"setup_s":        {median(m.setupS), "s"},
			"qps":            {m.closed.windowRate(), "1/s"},
			"p50_ms":         {percentile(lat, 0.50), "ms"},
			"p95_ms":         {m.closed.p95MS, "ms"},
			"cpu_ms_per_req": {1e3 * m.serverCPU / float64(max(ops, 1)), "ms"},
			"rss_mb":         {m.rssMB, "MB"},
			"recall_at_10":   {m.recall, "ratio"},
		},
		Extra: map[string]metric{
			"error_rate": {float64(failed) / float64(max(attempted, 1)), "ratio"},
		},
	}
	// The child's own mean handler latency over the timed phases, from the
	// cumulative means before and after.
	b, a := m.statsBefore.Endpoints[w.endpoint], m.statsAfter.Endpoints[w.endpoint]
	avg := 0.0
	if d := a.completed() - b.completed(); d > 0 {
		avg = (a.AvgLatencyUS*a.completed() - b.AvgLatencyUS*b.completed()) / d
	}
	res.PerLayer = map[string]metric{
		"gen.graph_s":           {m.in.genS, "s"},
		"tpad.build_s":          {m.buildS, "s"},
		"tpad.boot_ms":          {m.bootMS, "ms"},
		"tpad.warmup_s":         {m.warmS, "s"},
		"tpad.snapshot_bytes":   {float64(m.snapBytes), "bytes"},
		"server.cache_hit_rate": {m.hitRate(), "ratio"},
		"server.shed":           {m.shed(), "count"},
		"server.avg_latency_us": {avg, "us"},
		"client.p99_ms":         {percentile(lat, 0.99), "ms"},
		"client.cpu_share":      {m.selfCPU / (m.selfCPU + m.serverCPU), "ratio"},
	}
	late := m.open
	if m.open != nil {
		res.Extra["client.open_p50_ms"] = metric{percentile(m.open.latMS, 0.50), "ms"}
		res.Extra["client.open_p95_ms"] = metric{percentile(m.open.latMS, 0.95), "ms"}
	}
	if m.reader != nil {
		late = m.reader
		res.Extra["client.churn_read_p50_ms"] = metric{percentile(m.reader.latMS, 0.50), "ms"}
		res.Extra["client.churn_read_p95_ms"] = metric{percentile(m.reader.latMS, 0.95), "ms"}
		res.Extra["server.compactions"] = metric{float64(m.closed.compactions), "count"}
		res.Extra["server.full_rebuilds"] = metric{float64(m.closed.rebuilds), "count"}
		res.Extra["server.reindex_iters_per_write"] = metric{float64(m.closed.reindexIters) / float64(max(m.closed.ok(), 1)), "count"}
	}
	if late != nil {
		res.Extra["client.late_p95_ms"] = metric{percentile(late.lateMS, 0.95), "ms"}
	}
	return res
}
