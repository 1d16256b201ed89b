package rwr

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/sparse"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{C: 0, Eps: 1e-9},
		{C: 1, Eps: 1e-9},
		{C: 0.15, Eps: 0},
		{C: 0.15, Eps: 1e-9, MaxIter: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestSeedVector(t *testing.T) {
	q, err := SeedVector(4, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if q[1] != 0.5 || q[3] != 0.5 || q.Sum() != 1 {
		t.Errorf("q = %v", q)
	}
	if _, err := SeedVector(4, nil); err == nil {
		t.Error("empty seeds accepted")
	}
	if _, err := SeedVector(4, []int{4}); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestPowerIterationAgainstDense(t *testing.T) {
	g := gen.CommunityRMAT(150, 1200, 5, 0.2, 1)
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	cfg := DefaultConfig()
	for _, seed := range []int{0, 75, 149} {
		pi, iters, err := PowerIteration(w, []int{seed}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if iters == 0 {
			t.Error("no iterations performed")
		}
		de, err := DenseExact(w, []int{seed}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := pi.L1Dist(de); d > 1e-6 {
			t.Errorf("seed %d: power vs dense L1 = %g", seed, d)
		}
	}
}

func TestPowerIterationMassOne(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, 2)
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	r, _, err := PowerIteration(w, []int{5}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Sum()-1) > 1e-6 {
		t.Errorf("RWR mass = %g", r.Sum())
	}
	for _, x := range r {
		if x < 0 {
			t.Fatal("negative score")
		}
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	// On a directed cycle every node is symmetric → PageRank is uniform.
	n := 12
	b := graph.NewBuilderN(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	w := graph.NewWalk(b.Build(), graph.DanglingSelfLoop)
	pr, _, err := PageRank(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range pr {
		if math.Abs(x-1.0/float64(n)) > 1e-9 {
			t.Fatalf("node %d: PageRank %g, want uniform %g", i, x, 1.0/float64(n))
		}
	}
}

func TestPageRankFavorsHighInDegree(t *testing.T) {
	// Star pointing at node 0: node 0 must outrank the leaves.
	n := 20
	b := graph.NewBuilderN(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, 0)
	}
	b.AddEdge(0, 1)
	w := graph.NewWalk(b.Build(), graph.DanglingSelfLoop)
	pr, _, err := PageRank(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub not top ranked: pr[0]=%g pr[%d]=%g", pr[0], i, pr[i])
		}
	}
}

func TestRWRSeedLocality(t *testing.T) {
	// The seed itself must hold the single largest RWR score at c=0.5
	// (restart mass dominates).
	g := gen.CommunityRMAT(200, 1600, 4, 0.2, 3)
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	cfg := Config{C: 0.5, Eps: 1e-9}
	seed := 57
	r, _, err := PowerIteration(w, []int{seed}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	argmax, _ := r.Max()
	if argmax != seed {
		t.Errorf("argmax = %d, want seed %d", argmax, seed)
	}
}

func TestDenseExactRefusesHugeGraphs(t *testing.T) {
	g := gen.ErdosRenyi(5000, 5000, 4)
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	if _, err := DenseExact(w, []int{0}, DefaultConfig()); err == nil {
		t.Error("DenseExact accepted a 5000-node graph")
	}
}

func TestIterBoundMonotoneInEps(t *testing.T) {
	loose := Config{C: 0.15, Eps: 1e-3}
	tight := Config{C: 0.15, Eps: 1e-12}
	if loose.IterBound() >= tight.IterBound() {
		t.Errorf("IterBound not monotone: %d vs %d", loose.IterBound(), tight.IterBound())
	}
}

func shardTestWalk(t *testing.T, seed int64) *graph.Walk {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < 900; i++ {
		b.AddEdge(rng.Intn(150), rng.Intn(150))
	}
	return graph.NewWalk(b.Build(), graph.DanglingSelfLoop)
}

// equalBlocks splits [0, n) into workers equal row blocks.
func equalBlocks(n, workers int) []int {
	b := make([]int, workers+1)
	for i := range b {
		b[i] = i * n / workers
	}
	return b
}

// TestShardedMatchesSerial checks that a walk whose pull fans out over
// several row blocks gives the answer of the single-block walk, both for
// one dense application and for the power iteration built on it, and that
// the fan-out actually ran (the dense applications were pulled).
func TestShardedMatchesSerial(t *testing.T) {
	w := shardTestWalk(t, 61)
	n := w.N()
	serial, err := w.WithBlocks([]int{0, n})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	cfg := DefaultConfig()
	wantPI, _, err := PowerIteration(serial, []int{3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		op, err := w.WithBlocks(equalBlocks(n, workers))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		x := sparse.NewVector(n)
		for i := range x {
			x[i] = rng.Float64()
		}
		want := serial.MulT(x, sparse.NewVector(n))
		got := op.MulT(x, sparse.NewVector(n))
		if d := want.L1Dist(got); d > 1e-12 {
			t.Errorf("workers %d: sharded MulT deviates by %g", workers, d)
		}
		if _, pulls := op.MatvecCounts(); pulls != 1 {
			t.Fatalf("workers %d: a dense x was not pulled over the blocks", workers)
		}
		gotPI, _, err := PowerIteration(op, []int{3}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := wantPI.L1Dist(gotPI); d > 1e-12 {
			t.Errorf("workers %d: sharded power iteration deviates by %g", workers, d)
		}
	}
}

// TestShardedFallsBack checks the no-fan-out case: a walk with a single
// row block pulls a dense x on the caller's goroutine, so the application
// allocates nothing, and it answers like a walk with several blocks.
func TestShardedFallsBack(t *testing.T) {
	w := shardTestWalk(t, 63)
	n := w.N()
	one, err := w.WithBlocks([]int{0, n})
	if err != nil {
		t.Fatal(err)
	}
	four, err := w.WithBlocks(equalBlocks(n, 4))
	if err != nil {
		t.Fatal(err)
	}
	x, y := sparse.NewVector(n), sparse.NewVector(n)
	x.Fill(1 / float64(n))
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, func() { one.MulT(x, y) }); allocs != 0 {
		t.Errorf("single-block pull allocates %.2f objects/op, want exactly 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if push, pull := one.MatvecCounts(); push != 0 || pull != runs+1 {
		t.Errorf("dense x counted as %d pushed, %d pulled; want 0 and %d", push, pull, runs+1)
	}
	want := four.MulT(x, sparse.NewVector(n))
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("row %d: single block %g, four blocks %g", i, y[i], want[i])
		}
	}
}
