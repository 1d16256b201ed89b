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
	if stats.Full || stats.CorrectionIters < 2 {
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

// TestReindexChainedWrites is the written-index property over a long chain:
// 200 stationary SBM writes (edges drawn from a second draw of the same
// model, removed edges returned to it), then a non-stationary phase that
// rewires half the edges to uniform targets. After every write the index
// must be within its StaleBound of a fresh preprocess, the StaleBound within
// β, and a query within ErrorBound of exact RWR; somewhere along the chain
// the correction must have run past ρ itself.
func TestReindexChainedWrites(t *testing.T) {
	const nodes, writes, churn, rewires = 1000, 200, 20, 5
	sbm := func(seed int64) *graph.Graph {
		return gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: 4, AvgOutDeg: 8, PIn: 0.9, Seed: seed})
	}
	g, pool := sbm(21), sbm(22)
	policy := graph.DanglingSelfLoop
	cur, err := Preprocess(graph.NewWalk(g, policy), cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	pick := func(from *graph.Graph) [2]int {
		for {
			u := rng.Intn(nodes)
			if ns := from.OutNeighbors(u); len(ns) > 0 {
				return [2]int{u, int(ns[rng.Intn(len(ns))])}
			}
		}
	}
	write := func(tag string, adds, removes [][2]int) ReindexStats {
		t.Helper()
		d := graph.NewDelta(g)
		if _, _, err := d.Apply(adds, removes); err != nil {
			t.Fatal(err)
		}
		g = d.Compact()
		w := graph.NewWalk(g, policy)
		var stats ReindexStats
		if cur, stats, err = Reindex(cur, w, 0, 0); err != nil {
			t.Fatal(err)
		}
		checkWritten(t, tag, cur, w, rng.Intn(nodes))
		return stats
	}
	corrected, worst := 0, 0.0
	for i := 0; i < writes; i++ {
		var adds, removes [][2]int
		for j := 0; j < churn; j++ {
			adds = append(adds, pick(pool))
			removes = append(removes, pick(g))
		}
		stats := write(fmt.Sprintf("write %d", i), adds, removes)
		if stats.Iters() > DefaultParams().T+1 {
			corrected++
		}
		worst = math.Max(worst, stats.StaleBound)
	}
	per := int(g.NumEdges()) / 2 / rewires
	for i := 0; i < rewires; i++ {
		var adds, removes [][2]int
		for j := 0; j < per; j++ {
			e := pick(g)
			removes = append(removes, e)
			adds = append(adds, [2]int{e[0], rng.Intn(nodes)})
		}
		stats := write(fmt.Sprintf("rewire %d", i), adds, removes)
		if stats.Iters() > DefaultParams().T+1 {
			corrected++
		}
		worst = math.Max(worst, stats.StaleBound)
	}
	if corrected == 0 {
		t.Fatal("no write ran a correction step past ρ: the chain never exercised the budgeted correction")
	}
	t.Logf("%d of %d writes ran correction steps; largest StaleBound %.3g (budget %.3g)",
		corrected, writes+rewires, worst, StalenessBudget(cfg().C, DefaultParams().S))
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
		if sc.Iters() > DefaultParams().T+1 {
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
