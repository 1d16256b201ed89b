package reorder

import (
	"testing"

	"tpa/internal/gen"
)

func TestLabelPropagationInvariants(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{Nodes: 300, Communities: 6, AvgOutDeg: 8, PIn: 0.9, Seed: 3})
	p, err := LabelPropagation(g, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g.NumNodes(), 80); err != nil {
		t.Fatal(err)
	}
	if p.NumParts() < 2 {
		t.Errorf("only %d parts for a 300-node graph capped at 80", p.NumParts())
	}
}

func TestLabelPropagationRecoversCommunities(t *testing.T) {
	// With strong communities, most edges should stay within parts.
	g := gen.SBM(gen.SBMConfig{Nodes: 400, Communities: 4, AvgOutDeg: 10, PIn: 0.95, Seed: 7})
	p, err := LabelPropagation(g, 150, 20)
	if err != nil {
		t.Fatal(err)
	}
	var intra, total int
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			total++
			if p.Part[u] == p.Part[int(v)] {
				intra++
			}
		}
	}
	if frac := float64(intra) / float64(total); frac < 0.5 {
		t.Errorf("intra-part edge fraction %.2f too low", frac)
	}
}

func TestLabelPropagationErrors(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	if _, err := LabelPropagation(g, 0, 5); err == nil {
		t.Error("maxPart 0 accepted")
	}
	if _, err := LabelPropagation(g, 5, 0); err == nil {
		t.Error("rounds 0 accepted")
	}
}

func TestPartitionNodes(t *testing.T) {
	g := gen.ErdosRenyi(30, 90, 2)
	p, err := LabelPropagation(g, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	var covered int
	for id := 0; id < p.NumParts(); id++ {
		nodes := p.Nodes(id)
		if len(nodes) != p.Sizes[id] {
			t.Fatalf("part %d: Nodes %d vs Sizes %d", id, len(nodes), p.Sizes[id])
		}
		covered += len(nodes)
	}
	if covered != 30 {
		t.Fatalf("parts cover %d of 30 nodes", covered)
	}
}
