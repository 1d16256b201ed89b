package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tpa/internal/sparse"
)

// diamond returns a small fixed graph used across tests:
//
//	0 → 1, 0 → 2, 1 → 3, 2 → 3, 3 → 0, 4 (dangling)
func diamond() *Graph {
	return FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func TestBuilderBasics(t *testing.T) {
	g := diamond()
	if g.NumNodes() != 5 || g.NumEdges() != 5 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 || g.OutDegree(4) != 0 {
		t.Fatal("degree mismatch")
	}
	if !g.HasEdge(0, 2) || g.HasEdge(2, 0) || g.HasEdge(4, 0) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilderN(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("dedup failed: %d edges", g.NumEdges())
	}
}

func TestBuilderDropSelfLoops(t *testing.T) {
	b := NewBuilderN(2).DropSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	if g := b.Build(); g.NumEdges() != 1 {
		t.Fatalf("self loop kept: %d edges", g.NumEdges())
	}
}

func TestBuilderInferredN(t *testing.T) {
	b := NewBuilder()
	b.AddEdge(3, 7)
	g := b.Build()
	if g.NumNodes() != 8 {
		t.Fatalf("inferred n = %d, want 8", g.NumNodes())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilderN(2).AddEdge(0, 2)
}

func TestInOutConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := NewBuilderN(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			return false
		}
		// Every out-edge must appear as the matching in-edge.
		for u := 0; u < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				found := false
				for _, w := range g.InNeighbors(int(v)) {
					if int(w) == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		// Degree sums agree.
		var din, dout int
		for u := 0; u < n; u++ {
			din += g.InDegree(u)
			dout += g.OutDegree(u)
		}
		return din == dout && int64(dout) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWalkColumnStochastic(t *testing.T) {
	w := NewWalk(diamond(), DanglingSelfLoop)
	x := sparse.NewVector(5)
	x[0], x[3], x[4] = 0.3, 0.3, 0.4
	y := w.MulT(x, sparse.NewVector(5))
	if math.Abs(y.Sum()-1.0) > 1e-12 {
		t.Errorf("mass not conserved, sum=%v", y.Sum())
	}
}

// TestOnlySelfLoopPolicy: DanglingSelfLoop is the only dangling policy, so
// both walk constructors panic on any other value.
func TestOnlySelfLoopPolicy(t *testing.T) {
	for name, build := range map[string]func(){
		"NewWalk":      func() { NewWalk(diamond(), DanglingPolicy(1)) },
		"NewDeltaWalk": func() { NewDeltaWalk(NewDelta(diamond()), DanglingPolicy(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a policy other than DanglingSelfLoop", name)
				}
			}()
			build()
		}()
	}
}

// TestNewWalkFromParts: the adopted normalization must be exactly what
// NewWalk computes; a single wrong entry in either width is refused.
func TestNewWalkFromParts(t *testing.T) {
	g := diamond()
	ref := NewWalk(g, DanglingSelfLoop)
	invdeg, invdeg32 := ref.RawNormalization()
	if _, err := NewWalkFromParts(g, invdeg, invdeg32); err != nil {
		t.Fatalf("NewWalk's own normalization refused: %v", err)
	}
	if _, err := NewWalkFromParts(g, invdeg[:4], invdeg32); err == nil {
		t.Error("short invdeg accepted")
	}
	for _, c := range []struct {
		name string
		edit func(d []float64, d32 []float32)
	}{
		{"invdeg of a row", func(d []float64, _ []float32) { d[0] = 1 }},
		{"invdeg of a dangling row", func(d []float64, _ []float32) { d[4] = 1 }},
		{"invdeg NaN", func(d []float64, _ []float32) { d[1] = math.NaN() }},
		{"invdeg32 of a row", func(_ []float64, d32 []float32) { d32[3] = 0.5 }},
	} {
		d, d32 := slices.Clone(invdeg), slices.Clone(invdeg32)
		c.edit(d, d32)
		if _, err := NewWalkFromParts(g, d, d32); err == nil {
			t.Errorf("%s: forged normalization accepted", c.name)
		}
	}
}

func TestWalkMulTValues(t *testing.T) {
	g := diamond()
	w := NewWalk(g, DanglingSelfLoop)
	col := w.Column(0) // node 0 splits evenly to 1 and 2
	if col[1] != 0.5 || col[2] != 0.5 || col.Sum() != 1 {
		t.Fatalf("Column(0) = %v", col)
	}
	col4 := w.Column(4) // dangling → self loop
	if col4[4] != 1 {
		t.Fatalf("Column(4) = %v", col4)
	}
}

func TestWalkMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilderN(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		w := NewWalk(g, DanglingSelfLoop)
		x := sparse.NewVector(n)
		for i := range x {
			x[i] = rng.Float64()
		}
		before := x.Sum()
		y := w.MulT(x, sparse.NewVector(n))
		return math.Abs(y.Sum()-before) < 1e-9*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWalkMulTAllocationFree pins the kernel's zero-allocation contract in
// both widths, for MulT and for the budgeted PushUnder on either side of
// its budget: y is the caller's buffer and nothing else may be allocated
// per application.
func TestWalkMulTAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBuilderN(500)
	for i := 0; i < 3000; i++ {
		b.AddEdge(rng.Intn(450), rng.Intn(500)) // the last 50 nodes dangle
	}
	g := b.Build()
	n := g.NumNodes()
	x, y := sparse.NewVector(n), sparse.NewVector(n)
	x.Fill(1 / float64(n))
	x32, y32 := sparse.Round32(x, sparse.NewVector32(n)), sparse.NewVector32(n)
	w := NewWalk(g, DanglingSelfLoop)
	if allocs := testing.AllocsPerRun(50, func() { w.MulT(x, y) }); allocs != 0 {
		t.Errorf("MulT allocates %.2f objects/op, want exactly 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { w.MulT32(x32, y32) }); allocs != 0 {
		t.Errorf("MulT32 allocates %.2f objects/op, want exactly 0", allocs)
	}
	// A budget of m stops the push of this dense x; m+1 lets it measure the
	// rest of x and finish.
	for _, budget := range []int64{g.NumEdges(), g.NumEdges() + 1} {
		if allocs := testing.AllocsPerRun(50, func() { w.PushUnder(x, y, budget) }); allocs != 0 {
			t.Errorf("PushUnder(budget %d) allocates %.2f objects/op, want exactly 0", budget, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { w.PushUnder32(x32, y32, budget) }); allocs != 0 {
			t.Errorf("PushUnder32(budget %d) allocates %.2f objects/op, want exactly 0", budget, allocs)
		}
	}
}

func TestBuilderRejectsHugeIDs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for id above MaxNodeID")
		}
	}()
	NewBuilder().AddEdge(MaxNodeID+1, 0)
}
