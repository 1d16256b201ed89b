package tpa

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tpa/internal/mmapio"
)

// queriesAgree fails unless a and b answer every probe seed within tol,
// element-wise in external id space.
func queriesAgree(t *testing.T, tag string, a, b *Engine, seeds []int, tol float64) {
	t.Helper()
	for _, seed := range seeds {
		ra, err := a.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("%s: seed %d: lengths %d vs %d", tag, seed, len(ra), len(rb))
		}
		for i := range ra {
			if d := ra[i] - rb[i]; d > tol || d < -tol {
				t.Fatalf("%s: seed %d node %d: %g vs %g (Δ %g > %g)", tag, seed, i, ra[i], rb[i], d, tol)
			}
		}
	}
}

// TestMmapSnapshotRoundTrip saves engines of every flavor as TPAM and
// reloads them through both the explicit and the sniffing entry points: the
// mapped engine must answer bit-identically to the engine it was saved
// from.
func TestMmapSnapshotRoundTrip(t *testing.T) {
	g := RandomSBMGraph(500, 5, 6, 0.9, 11)
	seeds := []int{0, 42, 337, 499}
	for _, tc := range []struct {
		name  string
		build func() (*Engine, error)
	}{
		{"natural", func() (*Engine, error) { return New(g, Defaults()) }},
		{"reordered", func() (*Engine, error) {
			o := Defaults()
			o.Order = "degree"
			return New(g, o)
		}},
		{"float32", func() (*Engine, error) {
			o := Defaults()
			o.Precision = Float32
			return New(g, o)
		}},
		{"sharded", func() (*Engine, error) { return NewSharded(g, 4, Defaults()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "g.tpam")
			if err := eng.SaveSnapshotMmap(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshotMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
				t.Fatalf("loaded %d nodes / %d edges, want %d / %d",
					loaded.NumNodes(), loaded.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			if loaded.Precision() != eng.Precision() {
				t.Fatalf("precision %v, want %v", loaded.Precision(), eng.Precision())
			}
			if (eng.Permutation() == nil) != (loaded.Permutation() == nil) {
				t.Fatal("permutation presence changed across the round trip")
			}
			if loaded.NumShards() != eng.NumShards() {
				t.Fatalf("shards %d, want %d", loaded.NumShards(), eng.NumShards())
			}
			queriesAgree(t, tc.name, eng, loaded, seeds, 0)

			// The sniffing loader must take the mmap path for .tpam files.
			sniffed, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer sniffed.Close()
			if sniffed.snap == nil {
				t.Fatal("LoadSnapshotFile did not detect the TPAM container")
			}
			queriesAgree(t, tc.name+"-sniffed", eng, sniffed, seeds[:1], 0)
		})
	}
}

// TestMmapEngineRestrictions pins the mmap engine's contract: a write moves
// a mapped 2-shard engine onto the heap with its shard plan intact, the
// written engine holds no view into the mapping — it keeps answering after
// the source's Close, which crashes the process if it does not — and Close
// is idempotent.
func TestMmapEngineRestrictions(t *testing.T) {
	g := RandomSBMGraph(300, 4, 5, 0.9, 7)
	o := Defaults()
	o.Precision = Float32
	eng, err := NewSharded(g, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped, heap := loaded.StorageBytes(); mapped == 0 && heap == 0 {
		t.Fatal("StorageBytes reported nothing for a loaded snapshot")
	}
	adds, removes := [][2]int{{0, 299}, {17, 4}}, [][2]int{{5, int(g.OutNeighbors(5)[0])}}
	written, stats, err := loaded.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 2 || stats.Removed != 1 {
		t.Fatalf("write applied %d/%d edges, want 2/1", stats.Added, stats.Removed)
	}
	heapWritten, _, err := eng.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if written.Mapped() || written.NumShards() != 2 || written.Precision() != Float32 {
		t.Fatalf("written engine: mapped %v, %d shards, precision %v; want heap, 2, float32",
			written.Mapped(), written.NumShards(), written.Precision())
	}
	if mapped, _ := written.StorageBytes(); mapped != 0 {
		t.Fatalf("written engine reports %d mapped bytes", mapped)
	}
	seeds := []int{0, 5, 17, 299}
	queriesAgree(t, "written", heapWritten, written, seeds, 0)
	if _, err := written.TopK(17, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := written.TopKBatch(seeds, 5, 2); err != nil {
		t.Fatal(err)
	}

	resaved := filepath.Join(t.TempDir(), "w.tpam")
	if err := written.SaveSnapshotMmap(resaved); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadSnapshotMmap(resaved)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	if reloaded.NumShards() != 2 || reloaded.NumEdges() != written.NumEdges() {
		t.Fatalf("re-saved engine: %d shards / %d edges, want 2 / %d",
			reloaded.NumShards(), reloaded.NumEdges(), written.NumEdges())
	}
	queriesAgree(t, "re-saved", written, reloaded, seeds, 0)
}

// metaBytes returns the length of the TPAM meta section at path.
func metaBytes(t *testing.T, path string) int {
	t.Helper()
	s, err := mmapio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meta, err := s.Bytes(mmapSecMeta)
	if err != nil {
		t.Fatal(err)
	}
	return len(meta)
}

// TestWrittenEngineSnapshots pins where an engine that took writes can be
// saved. Its StaleBound survives a TPAM round trip, and the reloaded engine's
// next write is bit-identical to the live engine's; TPAS and the bare index
// have no field for the bound and refuse it, naming SaveSnapshotMmap. A
// freshly built engine still writes the 64-byte meta older builds read.
func TestWrittenEngineSnapshots(t *testing.T) {
	g := RandomSBMGraph(300, 4, 5, 0.9, 19)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	freshPath := filepath.Join(dir, "fresh.tpam")
	if err := eng.SaveSnapshotMmap(freshPath); err != nil {
		t.Fatal(err)
	}
	if n := metaBytes(t, freshPath); n != mmapMetaSize {
		t.Errorf("fresh engine wrote a %d-byte meta, want %d", n, mmapMetaSize)
	}

	written, _, err := eng.ApplyEdges([][2]int{{0, 299}, {17, 4}, {250, 3}}, [][2]int{{5, int(g.OutNeighbors(5)[0])}})
	if err != nil {
		t.Fatal(err)
	}
	if written.StaleBound() <= 0 {
		t.Fatalf("test premise broken: the write left StaleBound %g", written.StaleBound())
	}
	var buf bytes.Buffer
	if err := written.SaveSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "SaveSnapshotMmap") || buf.Len() != 0 {
		t.Errorf("SaveSnapshot on a written engine: %v after %d bytes, want a refusal naming SaveSnapshotMmap", err, buf.Len())
	}
	tpas := filepath.Join(dir, "w.tpas")
	if err := written.SaveSnapshotFile(tpas); err == nil || !strings.Contains(err.Error(), "SaveSnapshotMmap") {
		t.Errorf("SaveSnapshotFile on a written engine: %v, want a refusal naming SaveSnapshotMmap", err)
	}
	if _, err := os.Stat(tpas); !os.IsNotExist(err) {
		t.Errorf("refused SaveSnapshotFile left %s behind (%v)", tpas, err)
	}
	if err := written.SaveIndex(&buf); err == nil || !strings.Contains(err.Error(), "SaveSnapshotMmap") || buf.Len() != 0 {
		t.Errorf("SaveIndex on a written engine: %v after %d bytes, want a refusal naming SaveSnapshotMmap", err, buf.Len())
	}

	path := filepath.Join(dir, "w.tpam")
	if err := written.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	if n := metaBytes(t, path); n != mmapMetaStaleSize {
		t.Errorf("written engine wrote a %d-byte meta, want %d", n, mmapMetaStaleSize)
	}
	loaded, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.StaleBound() != written.StaleBound() || loaded.ErrorBound() != written.ErrorBound() {
		t.Fatalf("round trip: StaleBound %g / ErrorBound %g, want %g / %g",
			loaded.StaleBound(), loaded.ErrorBound(), written.StaleBound(), written.ErrorBound())
	}
	seeds := []int{0, 5, 17, 299}
	queriesAgree(t, "round trip", written, loaded, seeds, 0)

	adds := [][2]int{{42, 43}, {100, 7}}
	live, _, err := written.ApplyEdges(adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := loaded.ApplyEdges(adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.StaleBound() != live.StaleBound() {
		t.Errorf("next write: StaleBound %g after the round trip, %g live", again.StaleBound(), live.StaleBound())
	}
	queriesAgree(t, "next write", live, again, seeds, 0)
}

// TestShardedEngineEquivalence is the sharded-correctness crux: for shard
// counts 1, 2 and 7 the scatter-gather engine must agree with the plain
// engine element-wise to 1e-12 in external id space — the shard plan
// relabels nodes, so any leak of internal ids would misroute whole scores.
// The same holds after both engines take the same write.
func TestShardedEngineEquivalence(t *testing.T) {
	g := RandomSBMGraph(600, 6, 6, 0.9, 13)
	base, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	adds, removes := [][2]int{{0, 1}, {300, 7}, {599, 42}}, [][2]int{{99, int(g.OutNeighbors(99)[0])}}
	baseWritten, _, err := base.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 1, 99, 300, 599}
	for _, shards := range []int{1, 2, 7} {
		eng, err := NewSharded(g, shards, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if want := shards; eng.NumShards() != want {
			t.Fatalf("%d-way build reports %d shards", shards, eng.NumShards())
		}
		if shards > 1 {
			nodes, edges := eng.ShardLayout()
			tn, te := 0, int64(0)
			for i := range nodes {
				tn += nodes[i]
				te += edges[i]
			}
			if tn != g.NumNodes() || te != g.NumEdges() {
				t.Fatalf("shard layout covers %d nodes / %d edges, want %d / %d",
					tn, te, g.NumNodes(), g.NumEdges())
			}
		}
		queriesAgree(t, "shards", base, eng, seeds, 1e-12)
		written, _, err := eng.ApplyEdges(adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		if written.NumShards() != shards {
			t.Fatalf("%d-way engine reports %d shards after a write", shards, written.NumShards())
		}
		queriesAgree(t, "written shards", baseWritten, written, seeds, 1e-12)

		top, err := eng.TopK(seeds[2], 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 10 {
			t.Fatalf("TopK returned %d entries", len(top))
		}
		batch, err := eng.QueryBatch(seeds, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			single, err := eng.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			for j := range single {
				if batch[i][j] != single[j] {
					t.Fatalf("batch result differs from single query at seed %d node %d", seed, j)
				}
			}
		}
	}
}

// TestMmapZeroCopyLoad proves the zero-copy claim the format exists for:
// loading a TPAM snapshot must allocate O(1) heap in graph size. The graph
// below carries ~1.2 MB of arrays; the load must stay under 256 KiB of
// allocations (views, headers and engine structs — nothing proportional).
func TestMmapZeroCopyLoad(t *testing.T) {
	g := RandomSBMGraph(20_000, 10, 8, 0.9, 3)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	probe, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Mapped() {
		probe.Close()
		t.Skip("mmap unavailable on this platform; heap fallback in use")
	}
	probe.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer loaded.Close()
	alloc := after.TotalAlloc - before.TotalAlloc
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if alloc > 256<<10 {
		t.Fatalf("zero-copy load allocated %d bytes for a %d-byte snapshot", alloc, st.Size())
	}
	if _, err := loaded.Query(0); err != nil {
		t.Fatal(err)
	}
}
