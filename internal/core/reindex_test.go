package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/rwr"
)

// mutate applies a random small edge batch to w's graph and returns the
// delta walk plus the compacted graph for ground-truth preprocessing.
func mutate(t *testing.T, w *graph.Walk, rng *rand.Rand, batch int) (*graph.DeltaWalk, *graph.Graph) {
	t.Helper()
	g := w.Graph()
	n := g.NumNodes()
	d := graph.NewDelta(g)
	var adds, removes [][2]int
	for i := 0; i < batch; i++ {
		adds = append(adds, [2]int{rng.Intn(n), rng.Intn(n)})
		u := rng.Intn(n)
		if ns := g.OutNeighbors(u); len(ns) > 0 {
			removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
		}
	}
	if _, _, err := d.Apply(adds, removes); err != nil {
		t.Fatal(err)
	}
	return graph.NewDeltaWalk(d, w.Policy()), d.Compact()
}

// truncSlack covers the ε truncation of the from-scratch CPI the tests
// compare against: its own tail is at most (1-c)/c·ε ≈ 6e-9 in L1, which a
// written index's StaleBound does not account for.
const truncSlack = 1e-8

// checkWritten asserts the written-index contract against the operator w it
// serves: the stranger vector is within its StaleBound of a from-scratch
// preprocess, the StaleBound is within the budget β, and a query's L1 error
// against exact RWR is within ErrorBound.
func checkWritten(t *testing.T, tag string, tp *TPA, w rwr.Operator, seed int) {
	t.Helper()
	full, err := Preprocess(w, tp.cfg, tp.params)
	if err != nil {
		t.Fatal(err)
	}
	d := tp.StrangerVector().L1Dist(full.StrangerVector())
	if d > tp.StaleBound()+truncSlack {
		t.Errorf("%s: stranger vector is %g from a fresh preprocess, StaleBound %g", tag, d, tp.StaleBound())
	}
	if beta := StalenessBudget(tp.cfg.C, tp.params.S); tp.StaleBound() > beta {
		t.Errorf("%s: StaleBound %g exceeds the budget %g", tag, tp.StaleBound(), beta)
	}
	if got, want := tp.ErrorBound(), TheoremTwoBound(tp.cfg.C, tp.params.S)+tp.StaleBound(); got != want {
		t.Errorf("%s: ErrorBound %g, want Theorem 2 plus StaleBound = %g", tag, got, want)
	}
	approx, err := tp.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactRWR(w, seed, tp.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := approx.L1Dist(exact); e > tp.ErrorBound() {
		t.Errorf("%s: seed %d L1 error %g exceeds ErrorBound %g", tag, seed, e, tp.ErrorBound())
	}
}

// TestReindexMatchesFullPreprocess is the incremental path's correctness
// property: after a small delta, Reindex lands within its StaleBound of the
// stranger vector a from-scratch Preprocess of the mutated graph produces,
// with fewer propagation steps.
func TestReindexMatchesFullPreprocess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		tp, w := preprocessed(t, int64(60+trial), DefaultParams())
		dw, compacted := mutate(t, w, rng, 3)

		inc, stats, err := Reindex(tp, dw, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Full {
			t.Fatalf("trial %d: small delta fell back to full preprocessing (residual %g)", trial, stats.Residual)
		}
		if stats.StaleBound != inc.StaleBound() {
			t.Errorf("trial %d: stats report StaleBound %g, the index %g", trial, stats.StaleBound, inc.StaleBound())
		}
		fresh := graph.NewWalk(compacted, w.Policy())
		checkWritten(t, fmt.Sprintf("trial %d", trial), inc, fresh, 5)
		full, err := Preprocess(fresh, cfg(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stats.Iters(), full.PreprocessIters(); got >= want {
			t.Errorf("trial %d: incremental reindex spent %d propagation steps, full preprocess %d",
				trial, got, want)
		}
	}
}

// TestReindexFallsBackOnLargeDelta rewires a large fraction of the graph.
// The incremental path still serves it — the correction runs more steps and
// the written index keeps its contract — and Reindex falls back to full
// preprocessing only when the caller forces it with a negative maxResidual.
func TestReindexFallsBackOnLargeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tp, w := preprocessed(t, 70, DefaultParams())
	dw, compacted := mutate(t, w, rng, w.N()*4)
	fresh := graph.NewWalk(compacted, w.Policy())

	got, stats, err := Reindex(tp, dw, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Full || stats.CorrectionIters < 1 {
		t.Fatalf("massive delta: %+v, want an incremental reindex with correction steps", stats)
	}
	checkWritten(t, "massive delta", got, fresh, 5)

	forced, stats, err := Reindex(tp, dw, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || forced.StaleBound() != 0 {
		t.Fatalf("negative maxResidual: %+v, StaleBound %g; want a full rebuild with no staleness", stats, forced.StaleBound())
	}
	full, err := Preprocess(fresh, cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d := forced.StrangerVector().L1Dist(full.StrangerVector()); d > 1e-10 {
		t.Errorf("forced rebuild deviates from direct preprocess by %g", d)
	}
}

// TestReindexRepeated stacks many small incremental reindexes: staleness
// is re-measured against the served vector on every write, so it never
// adds up past the budget.
func TestReindexRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tp, w := preprocessed(t, 71, DefaultParams())
	cur := tp
	var dw *graph.DeltaWalk
	var compacted *graph.Graph
	walk := w
	for step := 0; step < 8; step++ {
		dw, compacted = mutate(t, walk, rng, 2)
		var err error
		cur, _, err = Reindex(cur, dw, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Rebind each generation to the compacted walk.
		walk = graph.NewWalk(compacted, w.Policy())
		cur, err = cur.WithOperator(walk)
		if err != nil {
			t.Fatal(err)
		}
	}
	checkWritten(t, "8 stacked increments", cur, walk, 5)
}

// writeChain drives a chain of writes the way Engine.ApplyEdges does —
// Graph.WithEdges, then ReindexWrite with the batch's dirty rows — holding
// every written index to checkWritten and every write to the application
// cap: its head and residual applications never exceed T+1.
type writeChain struct {
	t     *testing.T
	g     *graph.Graph
	cur   *TPA
	rng   *rand.Rand
	skips int // writes that skipped the head
	// corrected counts writes that ran correction steps past ρ.
	corrected int
	worst     float64 // largest StaleBound
}

func newWriteChain(t *testing.T, g *graph.Graph, seed int64) *writeChain {
	cur, err := Preprocess(graph.NewWalk(g, graph.DanglingSelfLoop), cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &writeChain{t: t, g: g, cur: cur, rng: rand.New(rand.NewSource(seed))}
}

// pick returns a random edge of from.
func (c *writeChain) pick(from *graph.Graph) [2]int {
	for {
		u := c.rng.Intn(from.NumNodes())
		if ns := from.OutNeighbors(u); len(ns) > 0 {
			return [2]int{u, int(ns[c.rng.Intn(len(ns))])}
		}
	}
}

func (c *writeChain) write(tag string, adds, removes [][2]int) ReindexStats {
	t := c.t
	t.Helper()
	next, added, removed, err := c.g.WithEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	dirty := DirtyRows(added, removed, c.g.OutDegree, next.OutDegree)
	c.g = next
	w := graph.NewWalk(next, graph.DanglingSelfLoop)
	var stats ReindexStats
	if c.cur, stats, err = ReindexWrite(c.cur, w, 0, dirty); err != nil {
		t.Fatal(err)
	}
	if stats.StaleBound != c.cur.StaleBound() {
		t.Errorf("%s: stats report StaleBound %g, the index %g", tag, stats.StaleBound, c.cur.StaleBound())
	}
	if capped := DefaultParams().T + 1; stats.HeadIters+stats.ResidualIters > capped {
		t.Errorf("%s: %d head and %d residual applications exceed T+1 = %d", tag, stats.HeadIters, stats.ResidualIters, capped)
	}
	if stats.HeadIters == 0 {
		c.skips++
		if stats.Iters() != 1 {
			t.Errorf("%s: a skipped head spent %d applications, want 1", tag, stats.Iters())
		}
	}
	if stats.CorrectionIters > 0 {
		c.corrected++
	}
	c.worst = math.Max(c.worst, stats.StaleBound)
	checkWritten(t, tag, c.cur, w, c.rng.Intn(next.NumNodes()))
	return stats
}

// churn writes n adds drawn from pool and n removes of present edges.
func (c *writeChain) churn(tag string, pool *graph.Graph, n int) ReindexStats {
	var adds, removes [][2]int
	for j := 0; j < n; j++ {
		adds = append(adds, c.pick(pool))
		removes = append(removes, c.pick(c.g))
	}
	return c.write(tag, adds, removes)
}

// TestReindexChainedWrites is the written-index property over a long chain:
// 200 stationary SBM writes (edges drawn from a second draw of the same
// model, removed edges returned to it), then a non-stationary phase that
// rewires half the edges to uniform targets. After every write the index
// must be within its StaleBound of a fresh preprocess, the StaleBound within
// β, a query within ErrorBound of exact RWR, and the head and residual
// within T+1 applications. Somewhere along the chain a write must have
// skipped the head, and one must have run the correction past ρ.
func TestReindexChainedWrites(t *testing.T) {
	const nodes, writes, churn, rewires = 1000, 200, 20, 5
	sbm := func(seed int64) *graph.Graph {
		return gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: 4, AvgOutDeg: 8, PIn: 0.9, Seed: seed})
	}
	pool := sbm(22)
	c := newWriteChain(t, sbm(21), 23)
	for i := 0; i < writes; i++ {
		c.churn(fmt.Sprintf("write %d", i), pool, churn)
	}
	per := int(c.g.NumEdges()) / 2 / rewires
	for i := 0; i < rewires; i++ {
		var adds, removes [][2]int
		for j := 0; j < per; j++ {
			e := c.pick(c.g)
			removes = append(removes, e)
			adds = append(adds, [2]int{e[0], c.rng.Intn(nodes)})
		}
		if stats := c.write(fmt.Sprintf("rewire %d", i), adds, removes); stats.HeadIters == 0 {
			t.Errorf("rewire %d skipped the head", i)
		}
	}
	if c.skips == 0 {
		t.Error("no write skipped the head")
	}
	if c.corrected == 0 {
		t.Error("no write ran a correction step past ρ: the chain never exercised the budgeted correction")
	}
	t.Logf("%d of %d writes skipped the head, %d ran correction steps; largest StaleBound %.3g (budget %.3g)",
		c.skips, writes+rewires, c.corrected, c.worst, StalenessBudget(cfg().C, DefaultParams().S))
}

// TestReindexChainedWritesRMAT runs the chain on an R-MAT graph, whose hub
// rows carry a large head sum h: there only the written-index contract and
// the application cap are asserted, not that any write skips.
func TestReindexChainedWritesRMAT(t *testing.T) {
	const scale, edges, writes, churn = 10, 8000, 100, 20
	pool := gen.DefaultRMAT(scale, edges, 32)
	c := newWriteChain(t, gen.DefaultRMAT(scale, edges, 31), 33)
	for i := 0; i < writes; i++ {
		c.churn(fmt.Sprintf("write %d", i), pool, churn)
	}
	t.Logf("%d of %d writes skipped the head, %d ran correction steps; largest StaleBound %.3g",
		c.skips, writes, c.corrected, c.worst)
}

// TestReindexWriteFirstRecomputes: an index without head state — fresh from
// preprocessing, or rebuilt by a forced full reindex — recomputes the head on
// its next write however small, and the write after that may skip.
func TestReindexWriteFirstRecomputes(t *testing.T) {
	tp, w := preprocessed(t, 74, DefaultParams())
	g := w.Graph()
	write := func(cur *TPA, g *graph.Graph, adds [][2]int) (*TPA, *graph.Graph, ReindexStats) {
		t.Helper()
		next, added, removed, err := g.WithEdges(adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		nt, stats, err := ReindexWrite(cur, graph.NewWalk(next, w.Policy()), 1,
			DirtyRows(added, removed, g.OutDegree, next.OutDegree))
		if err != nil {
			t.Fatal(err)
		}
		return nt, next, stats
	}
	cur, g, stats := write(tp, g, [][2]int{{0, 1}})
	if stats.HeadIters != DefaultParams().T-1 || stats.Iters() != DefaultParams().T {
		t.Fatalf("first write on a preprocessed index: %+v, want a T-1 step head and T applications", stats)
	}
	cur, g, stats = write(cur, g, [][2]int{{2, 3}})
	if stats.HeadIters != 0 {
		t.Fatalf("a one-edge write after a recompute did not skip: %+v", stats)
	}
	checkWritten(t, "skipped write", cur, graph.NewWalk(g, w.Policy()), 2)
	full, _, err := Reindex(cur, graph.NewWalk(g, w.Policy()), 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, stats = write(full, g, [][2]int{{4, 5}}); stats.HeadIters == 0 {
		t.Fatalf("first write after a full rebuild skipped the head: %+v", stats)
	}
}

// TestRowShift checks the closed form against ‖P'_u − P_u‖₁ computed from
// the two rows, and DirtyRows' grouping of a batch into rows.
func TestRowShift(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		old := map[int]bool{}
		for k := rng.Intn(n + 1); k > 0; k-- {
			old[rng.Intn(n)] = true
		}
		now, removed := map[int]bool{}, 0
		for v := range old {
			if rng.Intn(3) == 0 {
				removed++
			} else {
				now[v] = true
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			if v := rng.Intn(n); !old[v] {
				now[v] = true
			}
		}
		want := 2.0
		if len(old) > 0 && len(now) > 0 {
			want = 0
			for v := 0; v < n; v++ {
				var p, q float64
				if old[v] {
					p = 1 / float64(len(old))
				}
				if now[v] {
					q = 1 / float64(len(now))
				}
				want += math.Abs(p - q)
			}
		}
		if got := rowShift(len(old), len(now), removed); math.Abs(got-want) > 1e-12 {
			t.Fatalf("row %v → %v: rowShift %g, want %g", old, now, got, want)
		}
	}
	deg := func(d map[int]int) func(int) int { return func(u int) int { return d[u] } }
	rows := DirtyRows([][2]int{{1, 5}, {1, 6}, {4, 0}}, [][2]int{{0, 2}, {1, 7}, {9, 9}},
		deg(map[int]int{0: 1, 1: 2, 4: 0, 9: 4}), deg(map[int]int{0: 0, 1: 3, 4: 1, 9: 3}))
	want := []DirtyRow{{0, 2}, {1, 4.0 / 3}, {4, 2}, {9, 0.5}}
	if len(rows) != len(want) {
		t.Fatalf("DirtyRows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i].Node != want[i].Node || math.Abs(rows[i].Shift-want[i].Shift) > 1e-12 {
			t.Errorf("DirtyRows = %v, want %v", rows, want)
		}
	}
}

// TestReindexOnCompactedWalkMatchesOverlay chains SBM batches of 500 adds
// and 500 removes two ways: Reindex through one growing DeltaWalk overlay
// over the original CSR, and Reindex on a freshly compacted Walk after every
// batch, as Engine.ApplyEdges does. Both operators are the same matrix, so
// the two chains must take the same path (same iteration counts) and their
// stranger vectors must agree to 1e-12 after every batch: only the float
// summation order differs.
func TestReindexOnCompactedWalkMatchesOverlay(t *testing.T) {
	const nodes, batches, churn = 10000, 20, 500
	sbm := func(seed int64) *graph.Graph {
		return gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: 5, AvgOutDeg: 10, PIn: 0.9, Seed: seed})
	}
	g, pool := sbm(11), sbm(12) // adds come from a second draw of the same model
	policy := graph.DanglingSelfLoop
	viaOverlay, err := PreprocessParallel(graph.NewWalk(g, policy), cfg(), DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	viaCSR := viaOverlay
	overlay := graph.NewDelta(g)
	cur := g
	rng := rand.New(rand.NewSource(13))
	pick := func(from *graph.Graph) [2]int {
		for {
			u := rng.Intn(nodes)
			if ns := from.OutNeighbors(u); len(ns) > 0 {
				return [2]int{u, int(ns[rng.Intn(len(ns))])}
			}
		}
	}
	corrected, worst := 0, 0.0
	for b := 0; b < batches; b++ {
		var adds, removes [][2]int
		for i := 0; i < churn; i++ {
			adds = append(adds, pick(pool))
			removes = append(removes, pick(cur))
		}
		if _, _, err := overlay.Apply(adds, removes); err != nil {
			t.Fatal(err)
		}
		d := graph.NewDelta(cur)
		if _, _, err := d.Apply(adds, removes); err != nil {
			t.Fatal(err)
		}
		cur = d.Compact()

		var so, sc ReindexStats
		if viaOverlay, so, err = Reindex(viaOverlay, graph.NewDeltaWalk(overlay, policy), 0, 0); err != nil {
			t.Fatal(err)
		}
		if viaCSR, sc, err = Reindex(viaCSR, graph.NewWalk(cur, policy), 0, 0); err != nil {
			t.Fatal(err)
		}
		if so.Full != sc.Full || so.Iters() != sc.Iters() {
			t.Fatalf("batch %d: the overlay chain took %+v, the compacted chain %+v", b, so, sc)
		}
		if sc.CorrectionIters > 0 {
			corrected++
		}
		dist := viaOverlay.StrangerVector().L1Dist(viaCSR.StrangerVector())
		if dist > 1e-12 {
			t.Fatalf("batch %d: stranger vectors differ by %g in L1", b, dist)
		}
		worst = math.Max(worst, dist)
	}
	t.Logf("%d of %d batches ran correction steps; largest L1 gap %g", corrected, batches, worst)
}

// TestReindexKeepsFloat32Kernels: a float32 index reindexed onto a CSR Walk
// keeps serving on the float32 kernels. An operator without MulT32, such as
// the DeltaWalk overlay, drops it to the float64 kernels, which is why
// Engine.ApplyEdges reindexes on the compacted Walk.
func TestReindexKeepsFloat32Kernels(t *testing.T) {
	tp, w := preprocessed(t, 73, DefaultParams())
	if err := tp.SetPrecision(Float32); err != nil {
		t.Fatal(err)
	}
	dw, compacted := mutate(t, w, rand.New(rand.NewSource(10)), 3)
	onCSR, _, err := Reindex(tp, graph.NewWalk(compacted, w.Policy()), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !onCSR.useF32() {
		t.Error("a float32 index reindexed onto a CSR Walk lost its float32 kernels")
	}
	onOverlay, _, err := Reindex(tp, dw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if onOverlay.useF32() {
		t.Error("a DeltaWalk has no MulT32, yet the reindexed index claims the float32 kernels")
	}
}

func TestReindexErrors(t *testing.T) {
	tp, _ := preprocessed(t, 72, DefaultParams())
	other := graph.NewWalk(gen.ErdosRenyi(tp.walk.N()+5, 100, 1), graph.DanglingSelfLoop)
	if _, _, err := Reindex(tp, other, 1, 0); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if _, err := tp.WithOperator(other); err == nil {
		t.Error("WithOperator accepted a different-size operator")
	}
}
