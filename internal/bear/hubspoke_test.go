package bear

import (
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
)

func TestDecomposeInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := gen.CommunityRMAT(300, 2400, 5, 0.25, seed)
		hs, err := Decompose(g, 60, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := hs.Validate(g, 60); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if hs.SpokeCount()+len(hs.Hubs) != g.NumNodes() {
			t.Fatalf("seed %d: partition does not cover the graph", seed)
		}
	}
}

func TestDecomposeOrderingIsPermutation(t *testing.T) {
	g := gen.CommunityRMAT(200, 1500, 4, 0.2, 9)
	hs, err := Decompose(g, 50, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ord := hs.Ordering()
	if len(ord) != g.NumNodes() {
		t.Fatalf("ordering length %d", len(ord))
	}
	seen := make([]bool, g.NumNodes())
	for _, u := range ord {
		if seen[u] {
			t.Fatalf("node %d twice in ordering", u)
		}
		seen[u] = true
	}
}

func TestDecomposeStarGraph(t *testing.T) {
	// Star: hub 0, leaves 1..n-1. Removing the hub shatters everything.
	n := 50
	b := graph.NewBuilderN(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, 0)
	}
	g := b.Build()
	hs, err := Decompose(g, 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Validate(g, 5); err != nil {
		t.Fatal(err)
	}
	// Hub 0 must be among the hubs (it is the only high-degree node).
	isHub := false
	for _, h := range hs.Hubs {
		if h == 0 {
			isHub = true
		}
	}
	if !isHub {
		t.Error("star center not selected as hub")
	}
}

func TestDecomposeErrors(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 1)
	if _, err := Decompose(g, 0, 0.05); err == nil {
		t.Error("maxBlock 0 accepted")
	}
	if _, err := Decompose(g, 5, 0); err == nil {
		t.Error("hubFrac 0 accepted")
	}
	if _, err := Decompose(g, 5, 0.9); err == nil {
		t.Error("hubFrac 0.9 accepted")
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	// Two disjoint triangles: no hubs needed, two spoke blocks.
	b := graph.NewBuilderN(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	hs, err := Decompose(g, 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.Hubs) != 0 {
		t.Errorf("hubs selected unnecessarily: %v", hs.Hubs)
	}
	if len(hs.Blocks) != 2 {
		t.Errorf("blocks = %d, want 2", len(hs.Blocks))
	}
}
