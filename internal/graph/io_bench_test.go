package graph_test

import (
	"os"
	"path/filepath"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
)

// BenchmarkReadEdgeList times graph.LoadFile, the parse `tpad build` and
// `tpad serve -graph x.tsv` start with, on a 100k-node SBM edge list (the
// benchmark's sbm-100k shape: 12 out-edges per node, p_in 0.9, 50
// communities; ≈ 1M edges, ≈ 12 MB) written to a temporary file. MB/s is
// over the file's bytes; allocs/op is the per-load allocation count.
func BenchmarkReadEdgeList(b *testing.B) {
	g := gen.SBM(gen.SBMConfig{Nodes: 100_000, Communities: 50, AvgOutDeg: 12, PIn: 0.9, Seed: 1})
	path := filepath.Join(b.TempDir(), "sbm-100k.tsv")
	if err := graph.SaveFile(path, g); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := graph.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if got.NumEdges() != g.NumEdges() {
			b.Fatalf("loaded %d edges, want %d", got.NumEdges(), g.NumEdges())
		}
	}
}
