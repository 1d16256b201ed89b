package tpa_test

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"tpa"
)

func buildMutableEngine(t testing.TB, nodes int, o tpa.Options) (*tpa.Engine, *tpa.Graph) {
	t.Helper()
	g := tpa.RandomSBMGraph(nodes, 3, 6, 0.9, 17)
	eng, err := tpa.New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

func TestApplyEdgesServesMutatedGraph(t *testing.T) {
	eng, g := buildMutableEngine(t, 200, tpa.Defaults())
	adds := [][2]int{{0, 199}, {5, 100}}
	removes := [][2]int{{0, int(g.OutNeighbors(0)[0])}}

	next, stats, err := eng.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 2 || stats.Removed != 1 {
		t.Fatalf("stats added/removed = %d/%d, want 2/1", stats.Added, stats.Removed)
	}
	if stats.Nodes != 200 {
		t.Errorf("stats nodes = %d", stats.Nodes)
	}
	if want := g.NumEdges() + 1; stats.Edges != want || next.NumEdges() != want {
		t.Errorf("edges = %d (stats %d), want %d", next.NumEdges(), stats.Edges, want)
	}
	// The receiver is untouched: copy-on-write.
	if eng.NumEdges() != g.NumEdges() {
		t.Error("ApplyEdges mutated the receiver")
	}
	// The new engine answers queries over the mutated graph within the
	// theoretical bound.
	o := tpa.Defaults()
	mutated := next.Graph()
	if !mutated.HasEdge(0, 199) || !mutated.HasEdge(5, 100) {
		t.Error("added edges missing from the mutated graph")
	}
	approx, err := next.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := tpa.Exact(mutated, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for i := range exact {
		d := exact[i] - approx[i]
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	if l1 > next.ErrorBound() {
		t.Errorf("post-mutation query error %g exceeds bound %g", l1, next.ErrorBound())
	}
}

// TestApplyEdgesAlwaysCompacts pins the write contract: every batch that
// changes the graph leaves an engine serving a fresh CSR, which a TPAM
// snapshot round-trips to the same answers, and an all-no-op batch returns
// the receiver.
func TestApplyEdgesAlwaysCompacts(t *testing.T) {
	eng, _ := buildMutableEngine(t, 150, tpa.Defaults())
	next, stats, err := eng.ApplyEdges([][2]int{{1, 2}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added == 0 {
		t.Fatal("test premise broken: both edges already exist")
	}
	if !stats.Compacted {
		t.Error("a batch that changed the graph did not compact")
	}
	if next.Graph() == nil {
		t.Fatal("mutated engine has no graph")
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := next.SaveSnapshotMmap(path); err != nil {
		t.Fatalf("SaveSnapshotMmap right after a write: %v", err)
	}
	loaded, err := tpa.LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	a, err := next.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	if d := l1dist(a, b); d != 0 {
		t.Errorf("snapshot of a mutated engine answers %g away in L1", d)
	}

	again, stats, err := next.ApplyEdges([][2]int{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != next || stats.Compacted || stats.ReindexIters != 0 {
		t.Errorf("all-no-op batch did work: same engine %v, %+v", again == next, stats)
	}
}

// TestApplyEdgesKeepsFloat32Kernels: a float32 engine keeps serving on the
// float32 kernels after a write. Its answers differ from a float64 engine
// that took the same write by float32 rounding — a float32 engine that fell
// back to the float64 kernels would match it to float64 rounding — and stay
// within f32Slack plus the write's StaleBound of a float32 engine built from
// scratch on the mutated graph.
func TestApplyEdgesKeepsFloat32Kernels(t *testing.T) {
	o32 := tpa.Defaults()
	o32.Precision = tpa.Float32
	eng32, g := buildMutableEngine(t, 300, o32)
	eng64, _ := buildMutableEngine(t, 300, tpa.Defaults())
	adds := [][2]int{{0, 299}, {7, 150}, {42, 3}}
	removes := [][2]int{{1, int(g.OutNeighbors(1)[0])}}
	next32, _, err := eng32.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	next64, _, err := eng64.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	fresh32, err := tpa.New(next64.Graph(), o32)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{0, 7, 150} {
		got, err := next32.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := next64.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := fresh32.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := l1dist(got, wide); d < 1e-12 {
			t.Errorf("seed %d: the float32 engine answers %g in L1 from float64 after a write: it runs the float64 kernels", seed, d)
		}
		if d, tol := l1dist(got, fresh), f32Slack+next32.StaleBound(); d > tol {
			t.Errorf("seed %d: %g in L1 from a float32 engine built on the mutated graph, tolerance %g", seed, d, tol)
		}
	}
}

// TestApplyEdgesMassiveRewiring: a batch that rewires the graph wholesale
// takes the same incremental path as any other, with more correction steps,
// and the new engine keeps the written-engine contract.
func TestApplyEdgesMassiveRewiring(t *testing.T) {
	o := tpa.Defaults()
	eng, _ := buildMutableEngine(t, 120, o)
	rng := rand.New(rand.NewSource(4))
	var batch [][2]int
	for i := 0; i < 2000; i++ {
		batch = append(batch, [2]int{rng.Intn(120), rng.Intn(120)})
	}
	next, stats, err := eng.ApplyEdges(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReindexIters <= o.T+1 {
		t.Errorf("massive rewiring: %+v, want a reindex with correction steps", stats)
	}
	checkWrittenEngine(t, "massive rewiring", next, []int{0, 60, 119})
}

func TestApplyEdgesErrors(t *testing.T) {
	eng, _ := buildMutableEngine(t, 50, tpa.Defaults())
	if _, _, err := eng.ApplyEdges([][2]int{{0, 50}}, nil); err == nil {
		t.Error("out-of-range add accepted")
	}
	if _, _, err := eng.ApplyEdges(nil, [][2]int{{-1, 0}}); err == nil {
		t.Error("negative remove accepted")
	}
	// The error sentinels let callers (like the HTTP layer) classify.
	if _, _, err := eng.ApplyEdges([][2]int{{0, 50}}, nil); !errors.Is(err, tpa.ErrBadEdge) {
		t.Errorf("out-of-range error does not wrap ErrBadEdge: %v", err)
	}
	// Empty and all-no-op batches leave the graph untouched, so ApplyEdges
	// returns the receiver itself — no reindex, no new engine.
	next, stats, err := eng.ApplyEdges(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 0 || stats.Removed != 0 {
		t.Errorf("empty batch reported %d/%d mutations", stats.Added, stats.Removed)
	}
	if next != eng {
		t.Error("no-op batch built a new engine")
	}
	g := eng.Graph()
	existing := [2]int{0, int(g.OutNeighbors(0)[0])}
	next, stats, err = eng.ApplyEdges([][2]int{existing}, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 0) {
		t.Fatal("test premise broken: edge 1→0 exists")
	}
	if stats.Added != 0 || stats.Removed != 0 || stats.ReindexIters != 0 {
		t.Errorf("all-no-op batch did work: %+v", stats)
	}
	if next != eng {
		t.Error("all-no-op batch built a new engine")
	}
}

// checkWrittenEngine asserts the contract of an engine that took writes:
// ErrorBound is Theorem 2 at S plus a StaleBound within the slack to S-1;
// a from-scratch engine on the same graph answers within the sum of the two
// StaleBounds of it (the two share the family part, so the answers differ by
// exactly the stranger vectors, each within its own StaleBound of the exact
// one, up to CPI's ε truncation); and every
// probe seed's answer is within ErrorBound of exact RWR.
func checkWrittenEngine(t *testing.T, tag string, eng *tpa.Engine, seeds []int) {
	t.Helper()
	o := tpa.Defaults()
	s, _ := eng.Params()
	thm2 := 2 * math.Pow(1-o.C, float64(s))
	if got, want := eng.ErrorBound(), thm2+eng.StaleBound(); got != want {
		t.Errorf("%s: ErrorBound %g, want %g + StaleBound %g", tag, got, thm2, eng.StaleBound())
	}
	if slack := 2 * math.Pow(1-o.C, float64(s-1)); eng.ErrorBound() > slack {
		t.Errorf("%s: ErrorBound %g exceeds 2(1-c)^(S-1) = %g", tag, eng.ErrorBound(), slack)
	}
	fresh, err := tpa.New(eng.Graph(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		got, err := eng.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := l1dist(got, want); d > eng.StaleBound()+fresh.StaleBound()+1e-8 {
			t.Errorf("%s: seed %d answers %g from a fresh engine, StaleBounds %g + %g", tag, seed, d,
				eng.StaleBound(), fresh.StaleBound())
		}
		exact, err := tpa.Exact(eng.Graph(), seed, o)
		if err != nil {
			t.Fatal(err)
		}
		if d := l1dist(got, exact); d > eng.ErrorBound() {
			t.Errorf("%s: seed %d L1 error %g exceeds ErrorBound %g", tag, seed, d, eng.ErrorBound())
		}
	}
}

func TestApplyEdgesChainAcrossCompactions(t *testing.T) {
	// Mutate repeatedly and hold the final engine to the written-engine
	// contract against a from-scratch engine and exact RWR on the final
	// graph.
	eng, _ := buildMutableEngine(t, 150, tpa.Defaults())
	rng := rand.New(rand.NewSource(5))
	cur := eng
	for step := 0; step < 6; step++ {
		var adds [][2]int
		for i := 0; i < 5; i++ {
			adds = append(adds, [2]int{rng.Intn(150), rng.Intn(150)})
		}
		var err error
		cur, _, err = cur.ApplyEdges(adds, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	checkWrittenEngine(t, "6 chained writes", cur, []int{3, 77, 149})
}
