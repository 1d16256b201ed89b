package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

func TestDeltaApplyAndCompact(t *testing.T) {
	base := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 0}})
	d := graph.NewDelta(base)

	added, removed, err := d.Apply([][2]int{{2, 4}, {0, 3}}, [][2]int{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || removed != 1 {
		t.Fatalf("added %d removed %d, want 2 and 1", added, removed)
	}
	if d.NumEdges() != 5 {
		t.Errorf("edges = %d, want 5", d.NumEdges())
	}
	if d.Ops() != 3 {
		t.Errorf("ops = %d, want 3", d.Ops())
	}
	if !d.HasEdge(2, 4) || !d.HasEdge(0, 3) || d.HasEdge(0, 2) {
		t.Error("overlay edges wrong after Apply")
	}
	if d.HasEdge(1, 0) {
		t.Error("phantom edge")
	}
	// Untouched rows read through to the base.
	if !d.HasEdge(1, 2) || !d.HasEdge(3, 0) {
		t.Error("base edges lost")
	}
	if d.DirtyRows() != 2 {
		t.Errorf("dirty rows = %d, want 2", d.DirtyRows())
	}

	want := graph.FromEdges(5, [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 0}})
	got := d.Compact()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("compacted graph differs from Builder-built equivalent")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaNoOpsAndDedup(t *testing.T) {
	base := graph.FromEdges(3, [][2]int{{0, 1}})
	d := graph.NewDelta(base)
	// Re-adding an existing edge and removing a missing one are no-ops.
	added, removed, err := d.Apply([][2]int{{0, 1}, {0, 1}, {1, 2}}, [][2]int{{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || removed != 0 {
		t.Errorf("added %d removed %d, want 1 and 0", added, removed)
	}
	// Rows touched only by no-ops (0 and 2 above) must not be dirtied.
	if d.DirtyRows() != 1 {
		t.Errorf("dirty rows = %d, want 1 (only row 1 changed)", d.DirtyRows())
	}
	// Adding then removing the same edge in one batch: removes win.
	_, _, err = d.Apply([][2]int{{2, 1}}, [][2]int{{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.HasEdge(2, 1) {
		t.Error("edge named in both adds and removes survived")
	}
}

func TestDeltaRejectsOutOfRange(t *testing.T) {
	base := graph.FromEdges(3, [][2]int{{0, 1}})
	d := graph.NewDelta(base)
	for _, bad := range [][2]int{{-1, 0}, {0, 3}, {5, 5}} {
		if _, _, err := d.Apply([][2]int{bad}, nil); err == nil {
			t.Errorf("add %v accepted", bad)
		}
		if _, _, err := d.Apply(nil, [][2]int{bad}); err == nil {
			t.Errorf("remove %v accepted", bad)
		}
	}
	// The failed batches must not have changed anything.
	if d.Ops() != 0 || d.NumEdges() != 1 {
		t.Errorf("failed batch mutated the delta: ops=%d edges=%d", d.Ops(), d.NumEdges())
	}
}

func TestDeltaCloneIsolation(t *testing.T) {
	base := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}})
	d := graph.NewDelta(base)
	if _, _, err := d.Apply([][2]int{{2, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	if _, _, err := c.Apply([][2]int{{3, 0}}, [][2]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	// The original still sees its own state.
	if !d.HasEdge(0, 1) || !d.HasEdge(2, 3) || d.HasEdge(3, 0) {
		t.Error("mutating a clone leaked into the original")
	}
	if !c.HasEdge(3, 0) || c.HasEdge(0, 1) || c.HasEdge(2, 3) {
		t.Error("clone state wrong")
	}
}

func TestDeltaStaleness(t *testing.T) {
	base := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	d := graph.NewDelta(base)
	if d.Staleness() != 0 {
		t.Errorf("fresh delta staleness = %v", d.Staleness())
	}
	if _, _, err := d.Apply([][2]int{{0, 2}, {0, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := d.Staleness(); got != 0.5 {
		t.Errorf("staleness = %v, want 0.5 (2 ops on 4 base edges)", got)
	}
	// Empty base graph: staleness must not divide by zero.
	empty := graph.NewDelta(graph.FromEdges(2, nil))
	if _, _, err := empty.Apply([][2]int{{0, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := empty.Staleness(); got != 1 {
		t.Errorf("empty-base staleness = %v, want 1", got)
	}
}

// TestDeltaWalkMatchesCompactedWalk is the operator equivalence property:
// MulT through the overlay must agree with MulT on the compacted CSR,
// including deltas that create and fill dangling rows.
func TestDeltaWalkMatchesCompactedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(170)
		g := gen.SBM(gen.SBMConfig{Nodes: n, Communities: 1 + rng.Intn(4),
			AvgOutDeg: 1 + rng.Float64()*5, PIn: 0.5 + rng.Float64()*0.4,
			Seed: rng.Int63(), Uniform: true})
		d := graph.NewDelta(g)
		// Random mutation batch: some adds, some removes of existing edges.
		var adds, removes [][2]int
		for i := 0; i < 10+rng.Intn(30); i++ {
			adds = append(adds, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		for i := 0; i < 10; i++ {
			u := rng.Intn(n)
			if ns := g.OutNeighbors(u); len(ns) > 0 {
				removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
			}
		}
		if _, _, err := d.Apply(adds, removes); err != nil {
			t.Fatal(err)
		}
		compacted := d.Compact()
		if err := compacted.Validate(); err != nil {
			t.Fatalf("trial %d: compacted graph invalid: %v", trial, err)
		}
		x := sparse.NewVector(n)
		for i := range x {
			x[i] = rng.Float64()
		}
		dw := graph.NewDeltaWalk(d, graph.DanglingSelfLoop)
		cw := graph.NewWalk(compacted, graph.DanglingSelfLoop)
		a := dw.MulT(x, sparse.NewVector(n))
		b := cw.MulT(x, sparse.NewVector(n))
		if dist := a.L1Dist(b); dist > 1e-12 {
			t.Errorf("trial %d: DeltaWalk deviates from compacted Walk by %g", trial, dist)
		}
		// The blockwise path (what rwr.Sharded fans out over) must
		// agree with the serial overlay scatter up to summation order.
		// Sharded returns dw itself only when it could not shard.
		sh := rwr.Sharded(dw, 4)
		if sh == rwr.Operator(dw) {
			t.Fatalf("trial %d: DeltaWalk was not sharded (BlockOperator not implemented?)", trial)
		}
		c := sh.MulT(x, sparse.NewVector(n))
		if dist := c.L1Dist(b); dist > 1e-10 {
			t.Errorf("trial %d: sharded DeltaWalk deviates from compacted Walk by %g", trial, dist)
		}
	}
}
