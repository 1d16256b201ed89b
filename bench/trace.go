package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tpa"
	"tpa/internal/core"
	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/server"
	"tpa/internal/shard"
	"tpa/internal/sparse"
)

// The traced pass replays the request path in this process, with the
// benchmark itself as the caller at every level: it calls a layer's public
// entry point, then separately calls what that entry point is documented to
// call, and records each call as a span. Spans of one replayed request share
// its id and point at the span whose work they repeat; since every level is
// a separate call, a child's interval follows its parent's instead of lying
// inside it, and a layer's self time is its duration minus its children's
// durations. Spans inside the program are a later change (ROADMAP item 5).

const (
	traceSeeds   = 64 // replayed /topk requests
	degreeSeeds  = 32 // hub and tail seeds
	traceBatches = 8  // replayed /batch requests
	traceWrites  = 4  // replayed edge writes
	denseRepeats = 5  // dense kernels are timed this often; the median is kept
)

// span is one timed call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced pass began
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// call runs fn as a span and returns the span's id.
func (t *tracer) call(request, parent int, name string, fn func()) int {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request,
		Name: name, StartNS: int64(start), EndNS: int64(end)})
	return len(t.spans)
}

func (s span) dur() float64 { return float64(s.EndNS - s.StartNS) }

// medianNS is the median duration of the spans called name.
func (t *tracer) medianNS(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.dur())
		}
	}
	return median(d)
}

// selfMedianNS is the median self time of the spans called name: duration
// minus the durations of the spans that name them as parent.
func (t *tracer) selfMedianNS(name string) float64 {
	children := make(map[int]float64)
	for _, s := range t.spans {
		children[s.Parent] += s.dur()
	}
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.dur()-children[s.ID])
		}
	}
	return median(d)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// serve sends one request through the handler with a recorder and returns
// the body size; a non-200 answer is an error.
func serve(h http.Handler, r request) (int, error) {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, rec.Code, rec.Body.String())
	}
	return rec.Body.Len(), nil
}

// tracePass times every layer on in's graph and returns the per-layer
// metrics; exact holds the exact RWR vectors of the check seeds, or nil to
// have them computed here.
func tracePass(ctx context.Context, in *inputs, seed int64, sz sizing, dir, spansPath string, checks []int, exact [][]float64) (map[string]metric, []string, error) {
	t := &tracer{t0: time.Now()}
	out := make(map[string]metric)
	var problems []string
	var err error
	// step runs one fallible call as a root span, keeping the first error.
	step := func(name string, fn func() error) {
		if err != nil || ctx.Err() != nil {
			return
		}
		t.call(0, 0, name, func() { err = fn() })
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	}
	us := func(name, spanName string) { out[name] = metric{t.medianNS(spanName) / 1e3, "us"} }
	ms := func(name, spanName string) { out[name] = metric{t.medianNS(spanName) / 1e6, "ms"} }
	sec := func(name, spanName string) { out[name] = metric{t.medianNS(spanName) / 1e9, "s"} }

	opts := tpa.Defaults()
	cfg := rwr.Config{C: opts.C, Eps: opts.Eps}
	params := core.Params{S: opts.S, T: opts.T}
	workers := runtime.GOMAXPROCS(0)

	// Build and boot, layer by layer: what `tpad build` and `tpad serve` do.
	var g *graph.Graph
	step("graph.LoadFile", func() (e error) { g, e = tpa.LoadGraph(in.path); return })
	if err != nil {
		return nil, nil, err
	}
	n, m := g.NumNodes(), g.NumEdges()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	var tp *core.TPA
	step("core.PreprocessParallel", func() (e error) { tp, e = core.PreprocessParallel(w, cfg, params, 0); return })
	var eng, loaded, eng32, mapped *tpa.Engine
	step("tpa.New", func() (e error) { eng, e = tpa.New(g, opts); return })
	tpas, tpam := filepath.Join(dir, "trace.tpas"), filepath.Join(dir, "trace.tpam")
	step("tpa.Engine.SaveSnapshotFile", func() error { return eng.SaveSnapshotFile(tpas) })
	step("tpa.LoadSnapshotFile", func() (e error) { loaded, e = tpa.LoadSnapshotFile(tpas); return })
	var plan *shard.Plan
	step("shard.PlanShards", func() (e error) { plan, e = shard.PlanShards(g, 2, 10); return })
	opts32 := opts
	opts32.Precision = tpa.Float32
	step("tpa.NewSharded", func() (e error) { eng32, e = tpa.NewSharded(g, 2, opts32); return })
	step("tpa.Engine.SaveSnapshotMmap", func() error { return eng32.SaveSnapshotMmap(tpam) })
	step("tpa.LoadSnapshotMmap", func() (e error) { mapped, e = tpa.LoadSnapshotMmap(tpam); return })
	if err != nil {
		return nil, nil, err
	}
	defer mapped.Close()
	sec("graph.parse_s", "graph.LoadFile")
	sec("core.preprocess_s", "core.PreprocessParallel")
	out["core.preprocess_iters"] = metric{float64(tp.PreprocessIters()), "count"}
	sec("shard.plan_s", "shard.PlanShards")
	sec("tpa.new_s", "tpa.New")
	ms("tpa.save_tpas_ms", "tpa.Engine.SaveSnapshotFile")
	ms("tpa.load_tpas_ms", "tpa.LoadSnapshotFile")
	ms("mmapio.save_ms", "tpa.Engine.SaveSnapshotMmap")
	ms("mmapio.load_ms", "tpa.LoadSnapshotMmap")
	out["core.index_bytes"] = metric{float64(eng.IndexBytes()), "bytes"}
	out["core.error_bound"] = metric{eng.ErrorBound(), "l1"}

	// The sharded float32 TPA, bound to the plan's own operator so that the
	// kernel twin can be called directly. The stranger vector is the plain
	// one in shard order, which saves a second preprocessing run.
	pg, err := graph.Permute(g, plan.Perm)
	if err != nil {
		return nil, nil, err
	}
	op, err := shard.NewOperator(graph.NewWalk(pg, graph.DanglingSelfLoop), plan.Bounds)
	if err != nil {
		return nil, nil, err
	}
	inv := graph.InvertPermutation(plan.Perm) // external id → shard-order id
	stranger := sparse.NewVector(n)
	for i, ext := range plan.Perm {
		stranger[i] = tp.StrangerVector()[ext]
	}
	tp32, err := core.NewFromParts(op, cfg, params, stranger, sparse.Round32(stranger, sparse.NewVector32(n)), core.Float32, tp.PreprocessIters())
	if err != nil {
		return nil, nil, err
	}

	// Replayed /topk requests: handler → engine → core → hops.
	h := server.NewWith(loaded, server.Info{Nodes: n, Edges: m}, server.DefaultOptions())
	rng := rngFor(seed, streamTrace)
	seeds := uniformSeeds(rng, n, traceSeeds)
	hubs, tails := byDegree(g, degreeSeeds)
	famMass, neighMass, _ := core.PartMasses(cfg.C, params.S, params.T)
	scale := 1 + neighMass/famMass
	x, buf, r, dst := sparse.NewVector(n), sparse.NewVector(n), sparse.NewVector(n), sparse.NewVector(n)
	var worstReplay float64
	var respBytes int
	// One untimed request first, so the scratch pool and the page cache are
	// in the state every later request finds them in.
	if _, err := serve(h, topkRequest(hubs[0])); err != nil {
		return nil, nil, err
	}
	for i, s := range seeds {
		req := i + 1
		var e error
		root := t.call(req, 0, "server.Handler.ServeHTTP /topk miss", func() { respBytes, e = serve(h, topkRequest(s)) })
		if e != nil {
			return nil, nil, e
		}
		t.call(req, 0, "server.Handler.ServeHTTP /topk hit", func() { _, e = serve(h, topkRequest(s)) })
		if e != nil {
			return nil, nil, e
		}
		top := t.call(req, root, "tpa.Engine.TopK", func() { _, e = loaded.TopK(s, topK) })
		query := t.call(req, top, "core.TPA.QueryInto", func() { _, e = tp.QueryInto(s, dst) })
		if e != nil {
			return nil, nil, e
		}
		x.Zero()
		x[s] = cfg.C
		copy(r, x)
		for hopN := 1; hopN < params.S; hopN++ {
			// One step x ← (1-c)·Ãᵀx, then the accumulate and norm passes
			// cpiInto makes after it.
			t.call(req, query, fmt.Sprintf("graph.Walk.MulT hop %d", hopN), func() { w.MulT(x, buf) })
			t.call(req, query, "sparse.Vector Scale+Add+L1", func() {
				buf.Scale(1 - cfg.C)
				r.Add(buf)
				_ = buf.L1()
			})
			x, buf = buf, x
		}
		t.call(req, query, "core combine", func() {
			for j, f := range r {
				r[j] = f*scale + tp.StrangerVector()[j]
			}
		})
		t.call(req, top, "sparse.Vector.TopK", func() { _ = r.TopK(topK) })
		// The replay is only an account of the engine if it is the engine.
		ans, e := loaded.Query(s)
		if e != nil {
			return nil, nil, e
		}
		for j := range ans {
			worstReplay = math.Max(worstReplay, math.Abs(ans[j]-r[j]))
		}
	}
	if worstReplay > 1e-12 {
		problems = append(problems, fmt.Sprintf("replayed online phase differs from Engine.Query by %.3g (limit 1e-12)", worstReplay))
	}
	for hopN := 1; hopN < params.S; hopN++ {
		us(fmt.Sprintf("graph.mult_step%d_us", hopN), fmt.Sprintf("graph.Walk.MulT hop %d", hopN))
	}
	us("sparse.vecpass_us", "sparse.Vector Scale+Add+L1")
	us("core.combine_us", "core combine")
	us("sparse.topk_us", "sparse.Vector.TopK")
	us("core.query_us", "core.TPA.QueryInto")
	us("tpa.topk_us", "tpa.Engine.TopK")
	us("server.handle_hit_us", "server.Handler.ServeHTTP /topk hit")
	out["core.query_self_us"] = metric{t.selfMedianNS("core.TPA.QueryInto") / 1e3, "us"}
	out["tpa.self_us"] = metric{t.selfMedianNS("tpa.Engine.TopK") / 1e3, "us"}
	out["server.handle_miss_self_us"] = metric{t.selfMedianNS("server.Handler.ServeHTTP /topk miss") / 1e3, "us"}
	out["server.resp_bytes"] = metric{float64(respBytes), "bytes"}
	// Whether the account closes: the self times above, each a median of its
	// own spans, should add up to the median of the whole call.
	sum := out["tpa.self_us"].Value + out["core.query_self_us"].Value + out["core.combine_us"].Value +
		out["sparse.topk_us"].Value + float64(params.S-1)*out["sparse.vecpass_us"].Value
	for hopN := 1; hopN < params.S; hopN++ {
		sum += out[fmt.Sprintf("graph.mult_step%d_us", hopN)].Value
	}
	out["trace.residual_frac"] = metric{(out["tpa.topk_us"].Value - sum) / out["tpa.topk_us"].Value, "ratio"}

	// Hub and tail seeds, and the float32 twin, at the core boundary.
	for _, s := range hubs {
		t.call(0, 0, "core.TPA.QueryInto hub", func() { _, _ = tp.QueryInto(s, dst) }) // seeds are in range
	}
	for _, s := range tails {
		t.call(0, 0, "core.TPA.QueryInto tail", func() { _, _ = tp.QueryInto(s, dst) })
	}
	for _, s := range seeds {
		t.call(0, 0, "core.TPA.QueryInto float32 sharded", func() { _, _ = tp32.QueryInto(s, dst) })
	}
	us("core.query_hub_us", "core.TPA.QueryInto hub")
	us("core.query_tail_us", "core.TPA.QueryInto tail")
	us("core.query32_us", "core.TPA.QueryInto float32 sharded")

	// Exact-repeat counts: what a frontier kernel would skip.
	frontier := func(name string, ss []int) {
		frac := make([]float64, params.S)
		var touched float64
		for _, s := range ss {
			x.Zero()
			x[s] = 1
			for hopN := 1; hopN < params.S; hopN++ {
				for u, xu := range x {
					if xu != 0 {
						touched += float64(g.OutDegree(u))
					}
				}
				w.MulT(x, buf)
				x, buf = buf, x
				nnz := 0
				for _, xu := range x {
					if xu != 0 {
						nnz++
					}
				}
				frac[hopN] += float64(nnz) / float64(n) / float64(len(ss))
			}
		}
		out["core.edges_touched_frac"+name] = metric{touched / float64(len(ss)) / (float64(params.S-1) * float64(m)), "ratio"}
		if name == "" {
			for hopN := 1; hopN < params.S; hopN++ {
				out[fmt.Sprintf("core.frontier_frac_step%d", hopN)] = metric{frac[hopN], "ratio"}
			}
		}
	}
	frontier("", seeds)
	frontier("_hub", hubs)
	frontier("_tail", tails)

	// Dense kernels, next to what the memory system can do.
	x.Fill(1 / float64(n))
	for i := 0; i < denseRepeats; i++ {
		t.call(0, 0, "graph.Walk.MulT dense", func() { w.MulT(x, buf) })
		t.call(0, 0, "shard.Operator.MulT dense", func() { op.MulT(x, buf) })
	}
	ms("graph.mult_dense_ms", "graph.Walk.MulT dense")
	ms("shard.mult_dense_ms", "shard.Operator.MulT dense")
	denseS := t.medianNS("graph.Walk.MulT dense") / 1e9
	out["graph.mult_edges_per_s"] = metric{float64(m) / denseS, "1/s"}
	// Bytes computed from array sizes, not counted: row pointers, neighbour
	// ids, x and 1/degree read once, y zeroed once and read-modified-written
	// once per edge.
	bytesMoved := float64(8*(n+1)) + float64(4*m) + float64(3*8*n) + float64(16*m)
	out["graph.mult_gbps_computed"] = metric{bytesMoved / denseS / 1e9, "GB/s"}
	// The scatter cost per hop: a hop-2 frontier through the sharded gather.
	for _, s := range seeds {
		x.Zero()
		x[inv[s]] = 1
		op.MulT(x, buf)
		t.call(0, 0, "shard.Operator.MulT hop 2", func() { op.MulT(buf, x) })
	}
	us("shard.mult_step_us", "shard.Operator.MulT hop 2")

	// Replayed /batch requests on the mapped float32 sharded engine.
	hb := server.NewWith(mapped, server.Info{Nodes: n, Edges: m}, server.Options{MaxInFlight: 256})
	for i := 0; i < traceBatches; i++ {
		req := traceSeeds + 1 + i
		bs := distinctSeeds(rng, n, sz.batchSeeds)
		var e error
		root := t.call(req, 0, "server.Handler.ServeHTTP /batch", func() { _, e = serve(hb, batchRequest(bs)) })
		if e != nil {
			return nil, nil, e
		}
		call := t.call(req, root, "tpa.Engine.TopKBatch", func() { _, e = mapped.TopKBatch(bs, topK, workers) })
		if e != nil {
			return nil, nil, e
		}
		internal := make([]int, len(bs))
		for j, s := range bs {
			internal[j] = int(inv[s])
		}
		t.call(req, call, "core.TPA.TopKBatch", func() { _, e = tp32.TopKBatch(internal, topK, workers) })
		if e != nil {
			return nil, nil, e
		}
	}
	out["core.topk_batch_us_per_seed"] = metric{t.medianNS("core.TPA.TopKBatch") / 1e3 / float64(sz.batchSeeds), "us"}
	out["server.handle_batch_self_us"] = metric{t.selfMedianNS("server.Handler.ServeHTTP /batch") / 1e3, "us"}

	// Replayed edge writes: handler → engine → overlay and reindex.
	live := newLiveEdges(in, seed)
	erng := rngFor(seed, streamEdges)
	cur := loaded
	d := graph.NewDelta(g)
	curTP := tp
	for i := 0; i < traceWrites; i++ {
		req := traceSeeds + traceBatches + 1 + i
		adds, removes := live.batch(erng, sz.churnEdges)
		var e error
		root := t.call(req, 0, "server.Handler.ServeHTTP /edges", func() { _, e = serve(h, edgesRequest(adds, removes)) })
		if e != nil {
			return nil, nil, e
		}
		var next *tpa.Engine
		call := t.call(req, root, "tpa.Engine.ApplyEdges", func() { next, _, e = cur.ApplyEdges(adds, removes) })
		if e != nil {
			return nil, nil, e
		}
		cur = next
		d = d.Clone()
		t.call(req, call, "graph.Delta.Apply", func() { _, _, e = d.Apply(adds, removes) })
		if e != nil {
			return nil, nil, e
		}
		var rs core.ReindexStats
		t.call(req, call, "core.Reindex", func() {
			curTP, rs, e = core.Reindex(curTP, graph.NewDeltaWalk(d, graph.DanglingSelfLoop), workers, 0)
		})
		if e != nil {
			return nil, nil, e
		}
		out["core.reindex_iters"] = metric{float64(rs.Iters()), "count"}
	}
	ms("graph.delta_apply_ms", "graph.Delta.Apply")
	ms("core.reindex_ms", "core.Reindex")
	ms("tpa.apply_edges_ms", "tpa.Engine.ApplyEdges")
	out["server.handle_edges_self_ms"] = metric{t.selfMedianNS("server.Handler.ServeHTTP /edges") / 1e6, "ms"}
	// The overlay tax: the same dense product through an overlay at 5%
	// staleness, then the cost of folding it back into a CSR.
	for d.Staleness() < 0.05 {
		adds, removes := live.batch(erng, sz.churnEdges)
		if _, _, e := d.Apply(adds, removes); e != nil {
			return nil, nil, e
		}
	}
	dw := graph.NewDeltaWalk(d, graph.DanglingSelfLoop)
	x.Fill(1 / float64(n))
	for i := 0; i < denseRepeats; i++ {
		t.call(0, 0, "graph.DeltaWalk.MulT dense", func() { dw.MulT(x, buf) })
	}
	t.call(0, 0, "graph.Delta.Compact", func() { _ = d.Compact() })
	ms("graph.delta_mult_ms", "graph.DeltaWalk.MulT dense")
	ms("graph.compact_ms", "graph.Delta.Compact")

	// Accuracy against exact RWR: Theorem 2 must hold on every run.
	if exact == nil {
		if exact, err = exactScores(g, checks); err != nil {
			return nil, nil, err
		}
	}
	var l1 float64
	for i, s := range checks {
		ans, e := eng.Query(s)
		if e != nil {
			return nil, nil, e
		}
		l1 += sparse.Vector(ans).L1Dist(exact[i]) / float64(len(checks))
	}
	out["core.l1_error"] = metric{l1, "l1"}
	if l1 > eng.ErrorBound() {
		problems = append(problems, fmt.Sprintf("mean L1 error %.4g exceeds the Theorem-2 bound %.4g", l1, eng.ErrorBound()))
	}

	if spansPath != "" {
		if err := t.write(spansPath); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, problems, ctx.Err()
}
