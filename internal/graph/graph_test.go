package graph

import (
	"math"
	"math/rand"
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
	if g.DanglingCount() != 1 {
		t.Fatalf("dangling = %d", g.DanglingCount())
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
	b2 := NewBuilderN(2).KeepDuplicates()
	b2.AddEdge(0, 1)
	b2.AddEdge(0, 1)
	if g2 := b2.Build(); g2.NumEdges() != 2 {
		t.Fatalf("KeepDuplicates lost edges: %d", g2.NumEdges())
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

func TestReverse(t *testing.T) {
	g := diamond()
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate(reverse): %v", err)
	}
	if !r.HasEdge(1, 0) || r.HasEdge(0, 1) {
		t.Fatal("Reverse edges wrong")
	}
	if r.OutDegree(3) != g.InDegree(3) {
		t.Fatal("Reverse degree mismatch")
	}
}

func TestSubgraph(t *testing.T) {
	g := diamond()
	sub, orig := g.Subgraph([]int{0, 1, 3})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub n = %d", sub.NumNodes())
	}
	// Edges inside {0,1,3}: 0→1, 1→3, 3→0.
	if sub.NumEdges() != 3 {
		t.Fatalf("sub m = %d", sub.NumEdges())
	}
	if orig[2] != 3 {
		t.Fatalf("orig map %v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
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
	g := diamond()
	for _, pol := range []DanglingPolicy{DanglingSelfLoop, DanglingUniform} {
		w := NewWalk(g, pol)
		x := sparse.NewVector(5)
		x[0], x[3], x[4] = 0.3, 0.3, 0.4
		y := w.MulT(x, sparse.NewVector(5))
		if math.Abs(y.Sum()-1.0) > 1e-12 {
			t.Errorf("policy %v: mass not conserved, sum=%v", pol, y.Sum())
		}
	}
	// Drop policy loses exactly the dangling mass.
	w := NewWalk(g, DanglingDrop)
	x := sparse.NewVector(5)
	x[4] = 0.4
	x[0] = 0.6
	y := w.MulT(x, sparse.NewVector(5))
	if math.Abs(y.Sum()-0.6) > 1e-12 {
		t.Errorf("drop policy: sum=%v, want 0.6", y.Sum())
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

func TestWalkMulIsTransposeOfMulT(t *testing.T) {
	// ⟨Ã·x, y⟩ must equal ⟨x, Ãᵀ·y⟩ for all x, y.
	rng := rand.New(rand.NewSource(9))
	g := diamond()
	for _, pol := range []DanglingPolicy{DanglingSelfLoop, DanglingDrop, DanglingUniform} {
		w := NewWalk(g, pol)
		for trial := 0; trial < 20; trial++ {
			x, y := sparse.NewVector(5), sparse.NewVector(5)
			for i := 0; i < 5; i++ {
				x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			ax := w.Mul(x, sparse.NewVector(5))
			aty := w.MulT(y, sparse.NewVector(5))
			if math.Abs(ax.Dot(y)-x.Dot(aty)) > 1e-10 {
				t.Fatalf("policy %v: adjointness violated", pol)
			}
		}
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
// both widths and under every dangling policy: y is the caller's buffer and
// nothing else may be allocated per application.
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
	for _, pol := range []DanglingPolicy{DanglingSelfLoop, DanglingUniform, DanglingDrop} {
		w := NewWalk(g, pol)
		if allocs := testing.AllocsPerRun(50, func() { w.MulT(x, y) }); allocs != 0 {
			t.Errorf("policy %v: MulT allocates %.2f objects/op, want exactly 0", pol, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { w.MulT32(x32, y32) }); allocs != 0 {
			t.Errorf("policy %v: MulT32 allocates %.2f objects/op, want exactly 0", pol, allocs)
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
