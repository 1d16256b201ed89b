package core

import (
	"context"
	"math"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/rwr"
)

func preprocessed(tb testing.TB, seed int64, p Params) (*TPA, *graph.Walk) {
	tb.Helper()
	w := testWalk(tb, seed)
	tp, err := Preprocess(w, cfg(), p)
	if err != nil {
		tb.Fatal(err)
	}
	return tp, w
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{S: 5, T: 10}).Validate(); err != nil {
		t.Error(err)
	}
	for _, p := range []Params{{S: 0, T: 5}, {S: 5, T: 5}, {S: 5, T: 3}} {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

// Theorem 2: ‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S, for every seed.
func TestTheoremTwoBoundHolds(t *testing.T) {
	tp, w := preprocessed(t, 21, DefaultParams())
	bound := tp.ErrorBound()
	for _, seed := range []int{0, 50, 150, 299} {
		exact, err := ExactRWR(w, seed, cfg())
		if err != nil {
			t.Fatal(err)
		}
		approx, err := tp.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		errL1 := exact.L1Dist(approx)
		if errL1 > bound {
			t.Errorf("seed %d: error %g exceeds Theorem 2 bound %g", seed, errL1, bound)
		}
		// The paper's empirical point (Table III): the actual error is a
		// small fraction of the bound on block-structured graphs.
		if errL1 > 0.8*bound {
			t.Logf("seed %d: error %g close to bound %g (unusual for community graphs)", seed, errL1, bound)
		}
	}
}

// Lemma 1: ‖r_stranger − r̃_stranger‖₁ ≤ 2(1-c)^T.
func TestStrangerBoundHolds(t *testing.T) {
	p := DefaultParams()
	tp, w := preprocessed(t, 22, p)
	for _, seed := range []int{3, 111} {
		exactStranger, err := CPI(w, []int{seed}, cfg(), p.T, -1)
		if err != nil {
			t.Fatal(err)
		}
		diff := exactStranger.Scores.L1Dist(tp.StrangerVector())
		if bound := StrangerBound(cfg().C, p.T); diff > bound {
			t.Errorf("seed %d: stranger error %g exceeds Lemma 1 bound %g", seed, diff, bound)
		}
	}
}

// Lemma 3: ‖r_neighbor − r̃_neighbor‖₁ ≤ 2(1-c)^S − 2(1-c)^T.
func TestNeighborBoundHolds(t *testing.T) {
	p := DefaultParams()
	tp, w := preprocessed(t, 23, p)
	for _, seed := range []int{9, 200} {
		parts, err := tp.QueryParts(seed)
		if err != nil {
			t.Fatal(err)
		}
		exactNeighbor, err := CPI(w, []int{seed}, cfg(), p.S, p.T-1)
		if err != nil {
			t.Fatal(err)
		}
		diff := exactNeighbor.Scores.L1Dist(parts.Neighbor)
		if bound := NeighborBound(cfg().C, p.S, p.T); diff > bound {
			t.Errorf("seed %d: neighbor error %g exceeds Lemma 3 bound %g", seed, diff, bound)
		}
	}
}

// The family part returned by QueryParts is the online phase's head, to
// the bit the CPI prefix CPI(w, {seed}, 0, S-1), and its parts sum back to
// Query's answer. Not to the bit: Combine adds fam + fam·s′ where the
// online phase scales fam·(1+s′) once.
func TestFamilyPartExact(t *testing.T) {
	p := DefaultParams()
	tp, w := preprocessed(t, 24, p)
	for _, seed := range []int{0, 77, 299} {
		parts, err := tp.QueryParts(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CPI(w, []int{seed}, cfg(), 0, p.S-1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Scores {
			if math.Float64bits(parts.Family[i]) != math.Float64bits(v) {
				t.Fatalf("seed %d: family entry %d is %v, the CPI prefix has %v", seed, i, parts.Family[i], v)
			}
		}
		r, err := tp.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := r.L1Dist(parts.Combine()); d > 1e-12 {
			t.Errorf("seed %d: combined parts are %g from Query", seed, d)
		}
	}
	if _, err := tp.QueryParts(w.N()); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

// Scaled neighbor part must carry exactly the Lemma 2 neighbor mass.
func TestNeighborMassScaling(t *testing.T) {
	p := DefaultParams()
	tp, _ := preprocessed(t, 25, p)
	parts, err := tp.QueryParts(4)
	if err != nil {
		t.Fatal(err)
	}
	_, wantNeighbor, _ := PartMasses(cfg().C, p.S, p.T)
	if got := parts.Neighbor.L1(); math.Abs(got-wantNeighbor) > 1e-9 {
		t.Errorf("neighbor mass %g, want %g", got, wantNeighbor)
	}
}

// r_TPA must itself have total mass 1 (it is a convex combination of
// stochastic pieces when the stranger part is exact in mass).
func TestTPAMassNearOne(t *testing.T) {
	tp, _ := preprocessed(t, 26, DefaultParams())
	r, err := tp.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Sum()-1) > 1e-6 {
		t.Errorf("TPA mass = %g, want 1", r.Sum())
	}
}

func TestTPATopKOverlapsExact(t *testing.T) {
	tp, w := preprocessed(t, 27, DefaultParams())
	seed := 123
	exact, err := ExactRWR(w, seed, cfg())
	if err != nil {
		t.Fatal(err)
	}
	as, err := tp.Answer(context.Background(), Request{Seeds: []int{seed}, K: 20}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := as[0].Top
	exactTop := exact.TopK(20)
	inExact := make(map[int]bool, 20)
	for _, e := range exactTop {
		inExact[e.Index] = true
	}
	var hit int
	for _, e := range top {
		if inExact[e.Index] {
			hit++
		}
	}
	if hit < 14 { // ≥70% recall@20 even on a tiny graph
		t.Errorf("top-20 overlap only %d/20", hit)
	}
}

func TestQueryErrors(t *testing.T) {
	tp, _ := preprocessed(t, 28, DefaultParams())
	if _, err := tp.Query(-1); err == nil {
		t.Error("negative seed accepted")
	}
	if _, err := tp.Query(300); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestPreprocessErrors(t *testing.T) {
	w := testWalk(t, 29)
	if _, err := Preprocess(w, cfg(), Params{S: 3, T: 2}); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := Preprocess(w, rwr.Config{C: 0, Eps: 1e-9}, DefaultParams()); err == nil {
		t.Error("bad config accepted")
	}
}

func TestIndexBytes(t *testing.T) {
	tp, w := preprocessed(t, 30, DefaultParams())
	if got, want := tp.IndexBytes(), int64(w.N()*8); got != want {
		t.Errorf("IndexBytes = %d, want %d", got, want)
	}
}

func TestSelectParams(t *testing.T) {
	w := testWalk(t, 34)
	p, err := SelectParams(w, cfg(), 0.9, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("selected params invalid: %v", err)
	}
	if TheoremTwoBound(cfg().C, p.S) > 0.9 {
		t.Errorf("S=%d does not meet requested bound", p.S)
	}
	// Without sample seeds a default T is returned.
	p2, err := SelectParams(w, cfg(), 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.T != p2.S+5 {
		t.Errorf("default T = %d, want S+5", p2.T)
	}
}

// Block-structure advantage (the paper's Fig 6 argument): TPA error on a
// community graph is lower than on a degree-matched random graph.
func TestCommunityStructureHelpsTPA(t *testing.T) {
	p := DefaultParams()
	commG := gen.SBM(gen.SBMConfig{Nodes: 400, Communities: 8, AvgOutDeg: 8, PIn: 0.92, Seed: 40})
	randG := gen.ErdosRenyi(400, commG.NumEdges(), 41)
	var errs [2]float64
	for i, g := range []*graph.Graph{commG, randG} {
		w := graph.NewWalk(g, graph.DanglingSelfLoop)
		tp, err := Preprocess(w, cfg(), p)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, seed := range []int{5, 105, 205, 305} {
			exact, err := ExactRWR(w, seed, cfg())
			if err != nil {
				t.Fatal(err)
			}
			approx, err := tp.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			total += exact.L1Dist(approx)
		}
		errs[i] = total / 4
	}
	if errs[0] >= errs[1] {
		t.Logf("community error %g vs random %g — expected community < random", errs[0], errs[1])
		// Not a hard failure: small graphs are noisy. But both must obey
		// the theorem bound.
	}
	bound := TheoremTwoBound(cfg().C, p.S)
	for i, e := range errs {
		if e > bound {
			t.Errorf("graph %d: error %g above bound %g", i, e, bound)
		}
	}
}

func TestQuerySetMultiSeed(t *testing.T) {
	tp, w := preprocessed(t, 35, DefaultParams())
	seeds := []int{3, 77, 210}
	approx, _, err := answerSet(tp, context.Background(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.Sum()-1) > 1e-6 {
		t.Errorf("multi-seed mass %g", approx.Sum())
	}
	exact, err := CPI(w, seeds, cfg(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2's argument only uses column stochasticity, so the bound
	// holds for seed sets too.
	if d := exact.Scores.L1Dist(approx); d > tp.ErrorBound() {
		t.Errorf("multi-seed error %g exceeds bound %g", d, tp.ErrorBound())
	}
}

func TestQuerySetSingleMatchesQuery(t *testing.T) {
	tp, _ := preprocessed(t, 36, DefaultParams())
	a, err := tp.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := answerSet(tp, context.Background(), []int{42})
	if err != nil {
		t.Fatal(err)
	}
	if a.L1Dist(b) != 0 {
		t.Error("the set {s} differs from Query(s)")
	}
}

func TestQuerySetErrors(t *testing.T) {
	tp, _ := preprocessed(t, 37, DefaultParams())
	if _, _, err := answerSet(tp, context.Background(), nil); err == nil {
		t.Error("empty seed set accepted")
	}
	if _, _, err := answerSet(tp, context.Background(), []int{-3}); err == nil {
		t.Error("negative seed accepted")
	}
}
