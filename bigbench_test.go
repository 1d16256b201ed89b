package tpa

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tpa/internal/gen"
)

// TestBigBenchEndToEnd is the big-graph gate: stream-generate a ≥100M-edge
// SBM graph (never holding an edge list in memory), preprocess it sharded,
// write the TPAM snapshot, map it back zero-copy and answer queries off the
// mapping — the full billion-edge-serving pipeline at a scale the regular
// suite cannot afford. Run with
//
//	TPA_BIGBENCH=1 go test -run TestBigBenchEndToEnd -timeout 30m -v .
//
// Stage timings are logged; expect minutes of wall clock and ~15 GB of RAM
// plus ~1.3 GB of scratch disk.
func TestBigBenchEndToEnd(t *testing.T) {
	if os.Getenv("TPA_BIGBENCH") == "" {
		t.Skip("set TPA_BIGBENCH=1 to run the ≥100M-edge end-to-end bench")
	}

	cfg := gen.SBMConfig{
		Nodes:       12_000_000,
		Communities: 8,
		AvgOutDeg:   10,
		PIn:         0.85,
		Seed:        42,
	}

	start := time.Now()
	g := gen.SBM(cfg)
	t.Logf("generate: %d nodes, %d edges in %v", g.NumNodes(), g.NumEdges(), time.Since(start))
	if g.NumEdges() < 100_000_000 {
		t.Fatalf("graph has %d edges, want ≥ 100M", g.NumEdges())
	}

	start = time.Now()
	eng, err := NewSharded(g, 4, Defaults())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Logf("preprocess (4 shards): %v", time.Since(start))

	path := filepath.Join(t.TempDir(), "big.tpam")
	start = time.Now()
	if err := eng.SaveSnapshotMmap(path); err != nil {
		t.Fatalf("SaveSnapshotMmap: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("save: %d bytes in %v", st.Size(), time.Since(start))

	start = time.Now()
	mapped, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatalf("LoadSnapshotMmap: %v", err)
	}
	defer mapped.Close()
	t.Logf("mmap load (checksum pass included): %v", time.Since(start))
	if !mapped.Mapped() {
		t.Fatal("engine is not serving from the mapping")
	}
	if got := mapped.NumShards(); got != 4 {
		t.Fatalf("mapped engine has %d shards, want 4", got)
	}

	// Queries off the mapping: mass bounded, top-k ordered, and identical
	// to the heap engine that wrote the snapshot.
	n := g.NumNodes()
	for _, seed := range []int{0, n / 3, n - 1} {
		qStart := time.Now()
		scores, err := mapped.Query(seed)
		if err != nil {
			t.Fatalf("Query(%d): %v", seed, err)
		}
		var sum float64
		for _, s := range scores {
			if s < 0 || math.IsNaN(s) {
				t.Fatalf("Query(%d): invalid score %v", seed, s)
			}
			sum += s
		}
		if sum > 1+1e-6 || sum < 0.1 {
			t.Fatalf("Query(%d): mass %v outside (0.1, 1]", seed, sum)
		}
		topk, err := mapped.TopK(seed, 20)
		if err != nil {
			t.Fatalf("TopK(%d): %v", seed, err)
		}
		for i := 1; i < len(topk); i++ {
			if topk[i].Score > topk[i-1].Score {
				t.Fatalf("TopK(%d): not sorted at %d", seed, i)
			}
		}
		want, err := eng.Query(seed)
		if err != nil {
			t.Fatalf("heap Query(%d): %v", seed, err)
		}
		for i := range want {
			if want[i] != scores[i] {
				t.Fatalf("Query(%d): mapped[%d]=%v != heap %v", seed, i, scores[i], want[i])
			}
		}
		t.Logf("query seed %d: mass %.6f in %v", seed, sum, time.Since(qStart))
	}
}
