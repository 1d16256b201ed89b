package graph

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/sparse"
)

func TestMulTBlockCoversMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3; trial++ {
		g := randomGraph(rng, 90, 500)
		w := NewWalk(g, DanglingSelfLoop)
		x := sparse.NewVector(90)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := sparse.NewVector(90)
		pushUnder(w, w.invdeg, x, want, math.MaxInt64)
		// Assemble the same product from uneven disjoint blocks.
		got := sparse.NewVector(90)
		for _, cut := range [][2]int{{0, 17}, {17, 64}, {64, 90}} {
			mulTBlock(w, w.invdeg, x, got, cut[0], cut[1])
		}
		if d := want.L1Dist(got); d > 1e-12 {
			t.Errorf("trial %d: blockwise MulT deviates by %g", trial, d)
		}
	}
}

func TestBlockBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := randomGraph(rng, 200, 2000)
	for _, workers := range []int{1, 3, 16} {
		bounds := blockBounds(g, workers)
		if len(bounds) != workers+1 {
			t.Fatalf("workers %d: %d bounds", workers, len(bounds))
		}
		if bounds[0] != 0 || bounds[workers] != 200 {
			t.Fatalf("workers %d: bounds do not cover [0,n): %v", workers, bounds)
		}
		for i := 1; i <= workers; i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("workers %d: non-monotone bounds %v", workers, bounds)
			}
		}
	}
	// More workers than nodes must clamp to one block per node.
	if bounds := blockBounds(diamond(), 99); len(bounds) != diamond().NumNodes()+1 {
		t.Fatalf("99 workers on %d nodes: bounds %v", diamond().NumNodes(), bounds)
	}
}
