package tpa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"tpa/internal/core"
	"tpa/internal/graph"
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

// absentEdges returns k edges missing from g, in a fixed order.
func absentEdges(g *Graph, k int) [][2]int {
	n := g.NumNodes()
	var out [][2]int
	for u := 0; len(out) < k; u++ {
		if v := (u*37 + n/2) % n; v != u%n && !g.HasEdge(u%n, v) {
			out = append(out, [2]int{u % n, v})
		}
	}
	return out
}

// snapshotRoundTrip saves eng with SaveSnapshotFile, reloads it with
// LoadSnapshotFile, and fails unless the reloaded engine is the same engine:
// layout, bounds, and every Query, TopK and TopKBatch answer bit for bit.
func snapshotRoundTrip(t *testing.T, tag string, eng *Engine, seeds []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	sameEngine(t, tag, eng, loaded, seeds)
}

// sameEngine fails unless loaded, an engine bound to a TPAM container, is
// eng: layout, bounds, and every Query, TopK and TopKBatch answer bit for
// bit.
func sameEngine(t *testing.T, tag string, eng, loaded *Engine, seeds []int) {
	t.Helper()
	if loaded.snap == nil {
		t.Fatalf("%s: LoadSnapshotFile did not bind the TPAM container", tag)
	}
	if loaded.NumNodes() != eng.NumNodes() || loaded.NumEdges() != eng.NumEdges() {
		t.Fatalf("%s: loaded %d nodes / %d edges, want %d / %d", tag,
			loaded.NumNodes(), loaded.NumEdges(), eng.NumNodes(), eng.NumEdges())
	}
	if loaded.Precision() != eng.Precision() || loaded.NumShards() != eng.NumShards() {
		t.Fatalf("%s: precision %v / %d shards, want %v / %d", tag,
			loaded.Precision(), loaded.NumShards(), eng.Precision(), eng.NumShards())
	}
	if !slices.Equal(loaded.Permutation(), eng.Permutation()) {
		t.Fatalf("%s: permutation changed across the round trip", tag)
	}
	if loaded.StaleBound() != eng.StaleBound() || loaded.ErrorBound() != eng.ErrorBound() {
		t.Fatalf("%s: StaleBound %g / ErrorBound %g, want %g / %g", tag,
			loaded.StaleBound(), loaded.ErrorBound(), eng.StaleBound(), eng.ErrorBound())
	}
	queriesAgree(t, tag, eng, loaded, seeds, 0)
	for _, seed := range seeds {
		want, err := eng.TopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: TopK(%d) = %v, want %v", tag, seed, got, want)
		}
	}
	want, err := eng.TopKBatch(seeds, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.TopKBatch(seeds, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: TopKBatch seed %d = %v, want %v", tag, seeds[i], got[i], want[i])
		}
	}
}

// TestMmapSnapshotRoundTrip saves engines of every layout — precision ×
// sharding — once fresh and once after three writes, and
// reloads each: the reloaded engine must answer bit-identically to the one
// that was saved and carry its StaleBound exactly.
func TestMmapSnapshotRoundTrip(t *testing.T) {
	g := shuffledGraph(t, RandomSBMGraph(500, 5, 6, 0.9, 11), 1)
	seeds := []int{0, 42, 337, 499}
	writes := absentEdges(g, 3)
	for _, tc := range []struct {
		name   string
		prec   Precision
		shards int
	}{
		{"natural", Float64, 0},
		{"float32", Float32, 0},
		{"sharded", Float64, 2},
		{"sharded-f32", Float32, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Defaults()
			o.Precision = tc.prec
			eng, err := NewSharded(g, tc.shards, o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.shards > 1 && !isPermuted(eng) {
				t.Fatal("the shard plan left the engine unpermuted")
			}
			snapshotRoundTrip(t, "fresh", eng, seeds)
			for _, e := range writes {
				if eng, _, err = eng.ApplyEdges([][2]int{e}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if eng.StaleBound() <= 0 {
				t.Fatalf("test premise broken: three writes left StaleBound %g", eng.StaleBound())
			}
			snapshotRoundTrip(t, "written", eng, seeds)
		})
	}
}

// randomPerm returns a seeded random permutation of n node ids.
func randomPerm(n int, seed int64) []int32 {
	perm := make([]int32, n)
	for i, u := range rand.New(rand.NewSource(seed)).Perm(n) {
		perm[i] = int32(u)
	}
	return perm
}

// permuted returns g relabeled by perm (new id i is old node perm[i]).
func permuted(tb testing.TB, g *Graph, perm []int32) *Graph {
	tb.Helper()
	pg, err := graph.Permute(g, perm)
	if err != nil {
		tb.Fatal(err)
	}
	return pg
}

// shuffledGraph relabels g's nodes at random. The generators number each
// community's nodes contiguously, and the shard plan keeps the input order
// inside a community, so on a generated graph the plan is the identity and
// a sharded engine's id remapping does no work. Shuffled, the plan must
// move nodes, and a test of the remapping boundary has teeth.
func shuffledGraph(tb testing.TB, g *Graph, seed int64) *Graph {
	return permuted(tb, g, randomPerm(g.NumNodes(), seed))
}

// isPermuted reports whether the engine's internal ids differ from the
// external ones somewhere (a sorted permutation is the identity).
func isPermuted(e *Engine) bool { return e.perm != nil && !slices.IsSorted(e.perm) }

// orderedSnapshot returns the TPAM bytes that `tpad build -order` wrote
// before the shard plan became the only node layout: the graph permuted by
// a non-identity perm and preprocessed in that order, with a perm section
// and no shards section.
func orderedSnapshot(tb testing.TB, g *Graph, prec Precision) []byte {
	tb.Helper()
	perm := randomPerm(g.NumNodes(), 3)
	w := graph.NewWalk(permuted(tb, g, perm), graph.DanglingSelfLoop)
	cfg, params := Defaults().split()
	tp, err := core.PreprocessParallel(w, cfg, params, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tp.SetPrecision(prec); err != nil {
		tb.Fatal(err)
	}
	mw := mmapio.NewWriter()
	if err := core.WriteSnapshot(mw, tp, w, perm, nil); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mw.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestOrderedSnapshotLoads: a snapshot built with a node ordering (a perm
// section and no shards section) still loads, answers in external ids like
// an engine built from the graph, takes writes, and survives a save/load
// round trip.
func TestOrderedSnapshotLoads(t *testing.T) {
	g := RandomSBMGraph(400, 4, 6, 0.9, 21)
	want, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ordered.tpam")
	if err := os.WriteFile(path, orderedSnapshot(t, g, Float64), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !isPermuted(eng) || eng.NumShards() != 1 {
		t.Fatalf("ordered snapshot loaded permuted %v with %d shards, want permuted with 1 shard",
			isPermuted(eng), eng.NumShards())
	}
	seeds := []int{0, 57, 201, 399}
	for _, seed := range seeds {
		a, err := want.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		l1 := 0.0
		for i := range a {
			l1 += math.Abs(a[i] - b[i])
		}
		if l1 > 1e-12 {
			t.Fatalf("seed %d: ordered snapshot is %g L1 from New(g)", seed, l1)
		}
		wantTop, err := want.TopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		gotTop, err := eng.TopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(gotTop, wantTop, func(a, b Entry) bool { return a.Index == b.Index }) {
			t.Fatalf("seed %d: TopK nodes %v, want %v", seed, gotTop, wantTop)
		}
	}
	snapshotRoundTrip(t, "ordered", eng, seeds)
	written, stats, err := eng.ApplyEdges(absentEdges(g, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 2 || !isPermuted(written) {
		t.Fatalf("write on the ordered engine: added %d, permuted %v", stats.Added, isPermuted(written))
	}
	snapshotRoundTrip(t, "ordered-written", written, seeds)
}

// tpamSections are the TPAM sections of a natural float64 engine, copied
// out of the file SaveSnapshotMmap writes. encode lays them out again with
// mmapio.Writer, so every checksum is valid for whatever a test put in them.
type tpamSections struct {
	meta          []byte
	outPtr, inPtr []int64
	outIdx, inIdx []int32
	invdeg        []float64
	invdeg32      []float32
	dangling      []int32 // section 8, as older builds wrote it; omitted when nil
	stranger      []float64
}

func snapshotSections(tb testing.TB, eng *Engine) tpamSections {
	tb.Helper()
	if eng.perm != nil || eng.shards != nil || eng.Precision() != Float64 {
		tb.Fatal("snapshotSections copies the sections of a natural float64 engine only")
	}
	path := filepath.Join(tb.TempDir(), "valid.tpam")
	if err := eng.SaveSnapshotMmap(path); err != nil {
		tb.Fatal(err)
	}
	s, err := mmapio.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	meta, err := s.Bytes(core.SecMeta)
	if err != nil {
		tb.Fatal(err)
	}
	g := eng.walk.Graph()
	p := tpamSections{meta: slices.Clone(meta), stranger: eng.tpa.StrangerVector()}
	p.outPtr, p.outIdx = g.RawCSR()
	p.inPtr, p.inIdx = g.RawCSC()
	p.invdeg, p.invdeg32 = eng.walk.RawNormalization()
	return p
}

func (p tpamSections) encode(tb testing.TB) []byte {
	tb.Helper()
	w := mmapio.NewWriter()
	w.Bytes(core.SecMeta, p.meta)
	w.I64s(core.SecOutPtr, p.outPtr)
	w.I32s(core.SecOutIdx, p.outIdx)
	w.I64s(core.SecInPtr, p.inPtr)
	w.I32s(core.SecInIdx, p.inIdx)
	w.F64s(core.SecInvDeg, p.invdeg)
	w.F32s(core.SecInvDeg32, p.invdeg32)
	if p.dangling != nil {
		w.I32s(core.SecDangling, p.dangling)
	}
	w.F64s(core.SecStranger, p.stranger)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// forgeries each rewrite one section of a valid snapshot behind valid
// checksums, so only the loader's checks of the values can refuse the file:
// an out-of-range neighbour would make the first query that reaches the
// row panic, and a wrong 1/outdeg entry would make every answer leak or
// create mass.
var forgeries = []struct {
	name  string
	forge func(p *tpamSections)
}{
	{"out-of-range neighbour", func(p *tpamSections) {
		p.outIdx = slices.Clone(p.outIdx)
		p.outIdx[len(p.outIdx)-1] = int32(len(p.outPtr) - 1)
	}},
	{"invdeg entry", func(p *tpamSections) {
		p.invdeg = slices.Clone(p.invdeg)
		u := slices.IndexFunc(p.invdeg, func(d float64) bool { return d > 0 })
		p.invdeg[u] = 1 / (1/p.invdeg[u] + 1) // one out-edge too many
	}},
}

// forgedSnapshot re-encodes eng's TPAM sections as forge rewrites them.
func forgedSnapshot(tb testing.TB, eng *Engine, forge func(p *tpamSections)) []byte {
	tb.Helper()
	p := snapshotSections(tb, eng)
	forge(&p)
	return p.encode(tb)
}

// TestLoadRejectsForgedStructure: a snapshot whose checksums were rewritten
// to match a forged section must fail to load with ErrBadSnapshot, not load
// and then panic or answer with the wrong mass.
func TestLoadRejectsForgedStructure(t *testing.T) {
	eng, err := New(RandomSBMGraph(100, 2, 4, 0.9, 14), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range forgeries {
		blob := forgedSnapshot(t, eng, f.forge)
		if _, err := loadSnapshotMmapBytes(blob); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: in-memory load of a forged snapshot: %v, want ErrBadSnapshot", f.name, err)
		}
		path := filepath.Join(t.TempDir(), "forged.tpam")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: file load of a forged snapshot: %v, want ErrBadSnapshot", f.name, err)
		}
	}
}

// TestLoadsDanglingListLayout: older builds wrote the ascending list of
// dangling nodes as section 8, with its length in the meta. A file in that
// layout still loads, and answers bit for bit as the engine it was written
// from.
func TestLoadsDanglingListLayout(t *testing.T) {
	// Every seventh node loses its out-edges, so the list is not empty.
	src := RandomSBMGraph(400, 4, 5, 0.9, 21)
	b := graph.NewBuilderN(src.NumNodes())
	for u := 0; u < src.NumNodes(); u++ {
		if u%7 != 3 {
			for _, v := range src.OutNeighbors(u) {
				b.AddEdge(u, int(v))
			}
		}
	}
	g := b.Build()
	var dangling []int32
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			dangling = append(dangling, int32(u))
		}
	}
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := snapshotSections(t, eng)
	p.dangling = dangling
	binary.LittleEndian.PutUint64(p.meta[16:], uint64(len(dangling)))
	path := filepath.Join(t.TempDir(), "older.tpam")
	if err := os.WriteFile(path, p.encode(t), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	sameEngine(t, "dangling-list layout", eng, loaded, []int{0, 3, 10, 199, 399})
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
	meta, err := s.Bytes(core.SecMeta)
	if err != nil {
		t.Fatal(err)
	}
	return len(meta)
}

// TestWrittenEngineSnapshots pins how an engine that took writes is saved.
// SaveSnapshotFile keeps its StaleBound in a 72-byte meta, and the reloaded
// engine's next write recomputes the head the live engine's skips, both
// within their bounds. A freshly built engine still writes the 64-byte meta
// older builds read.
func TestWrittenEngineSnapshots(t *testing.T) {
	g := RandomSBMGraph(300, 4, 5, 0.9, 19)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	freshPath := filepath.Join(dir, "fresh.tpam")
	if err := eng.SaveSnapshotFile(freshPath); err != nil {
		t.Fatal(err)
	}
	if n := metaBytes(t, freshPath); n != core.MetaSize {
		t.Errorf("fresh engine wrote a %d-byte meta, want %d", n, core.MetaSize)
	}

	written, _, err := eng.ApplyEdges([][2]int{{0, 299}, {17, 4}, {250, 3}}, [][2]int{{5, int(g.OutNeighbors(5)[0])}})
	if err != nil {
		t.Fatal(err)
	}
	if written.StaleBound() <= 0 {
		t.Fatalf("test premise broken: the write left StaleBound %g", written.StaleBound())
	}
	path := filepath.Join(dir, "w.tpam")
	if err := written.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if n := metaBytes(t, path); n != core.MetaStaleSize {
		t.Errorf("written engine wrote a %d-byte meta, want %d", n, core.MetaStaleSize)
	}
	loaded, err := LoadSnapshotFile(path)
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

	// The head state a write reuses is not persisted: the live engine's next
	// small write skips the head, the loaded engine's recomputes it. Both
	// meet their own bounds, so they agree within the sum of the two.
	adds := [][2]int{{42, 43}, {100, 7}}
	live, liveStats, err := written.ApplyEdges(adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, againStats, err := loaded.ApplyEdges(adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, T := eng.Params()
	if liveStats.HeadIters != 0 || againStats.HeadIters != T-1 {
		t.Errorf("next write: head steps %d live, %d after the round trip; want 0 (skipped) and %d (recomputed)",
			liveStats.HeadIters, againStats.HeadIters, T-1)
	}
	for _, e := range []*Engine{live, again} {
		if e.StaleBound() > core.StalenessBudget(Defaults().C, Defaults().S) {
			t.Errorf("next write: StaleBound %g exceeds the budget", e.StaleBound())
		}
	}
	queriesAgree(t, "next write", live, again, seeds, live.StaleBound()+again.StaleBound())
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
