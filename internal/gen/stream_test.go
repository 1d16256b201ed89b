package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tpa/internal/graph"
)

// TestSBMGolden pins the SBM sampler: the SHA-256 of each config's edge
// list (graph.WriteEdgeList, the file the benchmark hashes into its pins)
// must not move, so a change to the sampler fails here and not only in the
// benchmark. The streamed edge list must carry the same edge lines, which
// is what makes `graphgen -model sbm` write the edges gen.SBM builds.
func TestSBMGolden(t *testing.T) {
	for _, c := range []struct {
		cfg    SBMConfig
		sha256 string
	}{
		{SBMConfig{Nodes: 300, Communities: 4, AvgOutDeg: 5, PIn: 0.9, Seed: 7},
			"92bc0291d8452bc4b8168df47ecbf98cfbaa39d3fb906ddc96e2f5c984d8cfe9"},
		{SBMConfig{Nodes: 257, Communities: 3, AvgOutDeg: 3.5, PIn: 0.5, Seed: 42, Uniform: true},
			"ee2777d872f4c1aef7a0e6f98f632db930df42145526b5a479285ac73d3f78f2"},
		{SBMConfig{Nodes: 50, Communities: 1, AvgOutDeg: 2, PIn: 1, Seed: 1},
			"d541a727fe41fa6234e2f0e4dab8aaf0afe3586556f2e40b4422673019a56607"},
	} {
		g := SBM(c.cfg)
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: invalid graph: %v", c.cfg, err)
		}
		var built, streamed bytes.Buffer
		if err := graph.WriteEdgeList(&built, g); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(built.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%+v: edge list SHA-256 %s, want %s", c.cfg, got, c.sha256)
		}
		if err := StreamSBMEdgeList(&streamed, c.cfg); err != nil {
			t.Fatal(err)
		}
		// The headers differ: a single pass cannot know the edge count.
		_, builtEdges, _ := bytes.Cut(built.Bytes(), []byte("\n"))
		_, streamedEdges, _ := bytes.Cut(streamed.Bytes(), []byte("\n"))
		if !bytes.Equal(builtEdges, streamedEdges) {
			t.Errorf("%+v: streamed edge list differs from the built graph's", c.cfg)
		}
	}
}
