package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
)

// TestWriteEdgeListGolden pins WriteEdgeList's bytes on the benchmark's
// sbm-10k graph (bench/inputs.go: 12 out-edges per node, p_in 0.9, 5
// communities, seed 1). The benchmark refuses to run when the file it
// writes no longer hashes to bench/pins.json, so a formatting change fails
// here first. The file must also parse back to the same graph.
func TestWriteEdgeListGolden(t *testing.T) {
	const want = "eed9914105018217a349d408697eda6f8c2173d32af2cbe8b81ad4dadaeb85b4"
	g := gen.SBM(gen.SBMConfig{Nodes: 10_000, Communities: 5, AvgOutDeg: 12, PIn: 0.9, Seed: 1})
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("edge list SHA-256 %s, want %s", got, want)
	}
	back, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != 102_916 || back.NumEdges() != g.NumEdges() {
		t.Fatalf("read back n=%d m=%d, want %d and %d", back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if !slices.Equal(back.OutNeighbors(u), g.OutNeighbors(u)) || !slices.Equal(back.InNeighbors(u), g.InNeighbors(u)) {
			t.Fatalf("node %d: adjacency differs after the round trip", u)
		}
	}
}
