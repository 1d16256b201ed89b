package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/mmapio"
	"tpa/internal/rwr"
)

// twoBlock builds a slowly mixing graph: blocks of na and nb nodes, deg
// out-edges per node, each staying inside its own block with probability
// pIn. The blocks' unequal sizes put the uniform start far from the
// stationary split, so the slow inter-block mode carries real mass.
func twoBlock(na, nb, deg int, pIn float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := na + nb
	b := graph.NewBuilderN(n)
	for u := 0; u < n; u++ {
		lo, size, olo, osize := 0, na, na, nb
		if u >= na {
			lo, size, olo, osize = na, nb, 0, na
		}
		for j := 0; j < deg; j++ {
			if rng.Float64() < pIn {
				b.AddEdge(u, lo+rng.Intn(size))
			} else {
				b.AddEdge(u, olo+rng.Intn(osize))
			}
		}
	}
	return b.Build()
}

// withDangling builds a random graph whose last tenth of the nodes have no
// out-edges.
func withDangling(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderN(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n-n/10), rng.Intn(n))
	}
	return b.Build()
}

// epsTail is the ε-exact stranger vector of w, CPI(w, all, c, T, -1): the
// reference a StaleBound is proven against. (A fresh Preprocess is not one:
// it stops on its own tail bound.)
func epsTail(t *testing.T, w rwr.Operator, c rwr.Config, p Params) *CPIResult {
	t.Helper()
	res, err := CPI(w, allSeeds(w.N()), c, p.T, -1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPreprocessTailBound is the tail rule's property: the StaleBound a
// build records covers its measured L1 distance to the ε-exact stranger
// vector (plus what ε itself truncated), stays within TailBudget, and the
// stranger vector keeps the exact Lemma-2 mass (1-c)^T. A fast-mixing graph
// stops well before ε; the slowly mixing two-block graph runs longer.
func TestPreprocessTailBound(t *testing.T) {
	p := DefaultParams()
	c := cfg().C
	mass := math.Pow(1-c, float64(p.T)) // the stranger part's, Lemma 2
	cases := []struct {
		name string
		g    *graph.Graph
		slow bool
	}{
		{"sbm", gen.SBM(gen.SBMConfig{Nodes: 2000, Communities: 8, AvgOutDeg: 8, PIn: 0.9, Seed: 91}), false},
		{"rmat", gen.RMAT(11, 16000, 0.57, 0.19, 0.19, 92), false},
		{"dangling", withDangling(1500, 9000, 93), false},
		{"two-block", twoBlock(300, 1200, 8, 0.99, 94), true},
	}
	iters := map[string]int{}
	for _, tc := range cases {
		w := graph.NewWalk(tc.g, graph.DanglingSelfLoop)
		tp, err := Preprocess(w, cfg(), p)
		if err != nil {
			t.Fatal(err)
		}
		eps := epsTail(t, w, cfg(), p)
		exact, epsIters := eps.Scores, eps.Iters
		// The ε-truncated tail sits below the exact one entry by entry.
		trunc := mass - exact.Sum()
		if trunc < 0 {
			t.Fatalf("%s: the ε vector carries %g more than the tail's mass", tc.name, -trunc)
		}
		d := tp.StrangerVector().L1Dist(exact)
		if d > tp.StaleBound()+trunc+1e-12 {
			t.Errorf("%s: stranger vector is %g from the ε-exact one, StaleBound %g (ε truncated %g)",
				tc.name, d, tp.StaleBound(), trunc)
		}
		if b := TailBudget(c, p.S); tp.StaleBound() > b {
			t.Errorf("%s: StaleBound %g exceeds the tail budget %g", tc.name, tp.StaleBound(), b)
		}
		if got := tp.StrangerVector().Sum(); math.Abs(got-mass) > 1e-12 {
			t.Errorf("%s: stranger mass %.15g, want (1-c)^T = %.15g", tc.name, got, mass)
		}
		if tp.PreprocessIters() > epsIters || !tc.slow && 2*tp.PreprocessIters() > epsIters {
			t.Errorf("%s: the build ran %d applications, the ε loop %d", tc.name, tp.PreprocessIters(), epsIters)
		}
		iters[tc.name] = tp.PreprocessIters()
		t.Logf("%s: %d applications (ε: %d), L1 %.3g to the ε vector, StaleBound %.3g",
			tc.name, tp.PreprocessIters(), epsIters, d, tp.StaleBound())
	}
	if iters["two-block"] <= iters["sbm"] {
		t.Errorf("the slowly mixing graph stopped after %d applications, the SBM after %d", iters["two-block"], iters["sbm"])
	}
}

// TestPreprocessSameStopAnyBlocks: the stop decision does not depend on the
// walk's row blocks. A dense application pulls every row in the same order
// whatever the blocks, and δ sums those rows in index order, so 1, 2, 3 and
// 8 blocks stop at the same step with the same stranger bits and StaleBound.
func TestPreprocessSameStopAnyBlocks(t *testing.T) {
	g := gen.CommunityRMAT(600, 6000, 5, 0.2, 55)
	base := graph.NewWalk(g, graph.DanglingSelfLoop)
	n := g.NumNodes()
	var want *TPA
	for _, blocks := range []int{1, 2, 3, 8} {
		bounds := make([]int, blocks+1)
		for i := range bounds {
			bounds[i] = i * n / blocks
		}
		w, err := base.WithBlocks(bounds)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := Preprocess(w, cfg(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, pulls := w.MatvecCounts(); pulls != int64(tp.PreprocessIters()) {
			t.Fatalf("%d blocks: %d of %d applications pulled", blocks, pulls, tp.PreprocessIters())
		}
		if want == nil {
			want = tp
			continue
		}
		tag := fmt.Sprintf("%d blocks", blocks)
		if tp.PreprocessIters() != want.PreprocessIters() || tp.StaleBound() != want.StaleBound() {
			t.Errorf("%s: stopped after %d applications with StaleBound %g; one block: %d, %g", tag,
				tp.PreprocessIters(), tp.StaleBound(), want.PreprocessIters(), want.StaleBound())
		}
		checkBits(t, tag, tp.StrangerVector(), want.StrangerVector())
	}
}

// TestOldIndexLoadsUnchanged: an index built by the ε loop (StaleBound 0)
// saves the 64-byte meta older builds wrote, loads with StaleBound 0, and
// answers bit-identically.
func TestOldIndexLoadsUnchanged(t *testing.T) {
	w := testWalk(t, 57)
	p := DefaultParams()
	eps := epsTail(t, w, cfg(), p)
	exact, iters := eps.Scores, eps.Iters
	old := &TPA{walk: w, cfg: cfg(), params: p, stranger: exact, preIters: iters}
	data := snapshotBytes(t, old, w, nil, nil)
	s, err := mmapio.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := s.Bytes(SecMeta); err != nil || len(b) != MetaSize {
		t.Fatalf("an ε-built index wrote a %d-byte meta (%v), want %d", len(b), err, MetaSize)
	}
	loaded, err := readIndexBytes(data, w)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.StaleBound() != 0 || loaded.PreprocessIters() != iters {
		t.Errorf("loaded StaleBound %g after %d iterations, want 0 after %d", loaded.StaleBound(), loaded.PreprocessIters(), iters)
	}
	checkBits(t, "stranger vector", loaded.StrangerVector(), exact)
	for _, seed := range []int{0, 42, 299} {
		a, err := old.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, fmt.Sprintf("seed %d", seed), b, a)
	}
}

// TestBuildStationaryStart: on a directed n-cycle the uniform restart is
// already stationary, so δ = 0 from the first step. The build's own loop
// (refPreprocess) stops on the extended bound at i = T. A build is
// recompute from the zero vector, whose residual application computes x(T)
// without measuring δ, so it stops one step later, at T+1, on the same
// bound 0: the vector matches to rounding, and StaleBound is exactly 0.
func TestBuildStationaryStart(t *testing.T) {
	const n = 1000
	b := graph.NewBuilderN(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
	}
	w := graph.NewWalk(b.Build(), graph.DanglingSelfLoop)
	p := DefaultParams()
	tp, err := Preprocess(w, cfg(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, iters, stale := refPreprocess(w, cfg(), p)
	if iters != p.T || stale != 0 {
		t.Fatalf("the reference stopped at %d with bound %g, want T = %d with 0", iters, stale, p.T)
	}
	if d := tp.StrangerVector().L1Dist(want); d > 1e-15 {
		t.Errorf("stranger vector is %g from the reference", d)
	}
	if tp.StaleBound() != 0 {
		t.Errorf("StaleBound %g, want exactly 0", tp.StaleBound())
	}
	if tp.PreprocessIters() > p.T+1 {
		t.Errorf("the build ran %d applications, want at most T+1 = %d", tp.PreprocessIters(), p.T+1)
	}
}
