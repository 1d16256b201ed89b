package core

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
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

// TestReindexMatchesFullPreprocess is the incremental path's correctness
// property: after a small delta, Reindex must land on (numerically) the
// same stranger vector a from-scratch Preprocess of the mutated graph
// produces, and with fewer propagation steps.
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
		full, err := Preprocess(graph.NewWalk(compacted, w.Policy()), cfg(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		// Both vectors are ε-truncated CPI sums; they may differ by the
		// truncation tails, orders of magnitude below the query error bound.
		if d := inc.StrangerVector().L1Dist(full.StrangerVector()); d > 1e-6 {
			t.Errorf("trial %d: incremental stranger vector deviates from full preprocess by %g", trial, d)
		}
		if got, want := stats.Iters(), full.PreprocessIters(); got >= want {
			t.Errorf("trial %d: incremental reindex spent %d propagation steps, full preprocess %d",
				trial, got, want)
		}
		// Queries through the incrementally reindexed state agree too.
		a, err := inc.Query(5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := full.Query(5)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.L1Dist(b); d > 1e-6 {
			t.Errorf("trial %d: post-reindex query deviates by %g", trial, d)
		}
	}
}

// TestReindexFallsBackOnLargeDelta rewires a large fraction of the graph:
// the residual must exceed the threshold and Reindex must transparently run
// a full preprocess instead, with identical results.
func TestReindexFallsBackOnLargeDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tp, w := preprocessed(t, 70, DefaultParams())
	dw, compacted := mutate(t, w, rng, w.N()*4)

	got, stats, err := Reindex(tp, dw, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full {
		t.Fatalf("massive delta took the incremental path (residual %g)", stats.Residual)
	}
	full, err := Preprocess(graph.NewWalk(compacted, w.Policy()), cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d := got.StrangerVector().L1Dist(full.StrangerVector()); d > 1e-10 {
		t.Errorf("fallback result deviates from direct preprocess by %g", d)
	}
}

// TestReindexRepeated stacks many small incremental reindexes and checks
// the truncation drift stays negligible against a from-scratch rebuild.
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
	full, err := Preprocess(walk, cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d := cur.StrangerVector().L1Dist(full.StrangerVector()); d > 1e-5 {
		t.Errorf("8 stacked increments drifted %g from a fresh preprocess", d)
	}
}

// TestReindexOnCompactedWalkMatchesOverlay chains SBM batches of 500 adds
// and 500 removes two ways: Reindex through one growing DeltaWalk overlay
// over the original CSR, and Reindex on a freshly compacted Walk after every
// batch, as Engine.ApplyEdges does. Both operators are the same matrix, so
// the two chains must take the same path (same iteration counts, same
// fallbacks) and their stranger vectors must agree to 1e-12 after every
// batch: only the float summation order differs.
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
	incremental, worst := 0, 0.0
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
		if !sc.Full {
			incremental++
		}
		dist := viaOverlay.StrangerVector().L1Dist(viaCSR.StrangerVector())
		if dist > 1e-12 {
			t.Fatalf("batch %d: stranger vectors differ by %g in L1", b, dist)
		}
		worst = math.Max(worst, dist)
	}
	if incremental == 0 {
		t.Fatal("every batch fell back to full preprocessing; the chain never exercised the incremental path")
	}
	t.Logf("%d of %d batches incremental; largest L1 gap %g", incremental, batches, worst)
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
