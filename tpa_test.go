package tpa

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func demoGraph() *Graph {
	return RandomCommunityGraph(400, 4000, 8, 42)
}

func TestEndToEnd(t *testing.T) {
	g := demoGraph()
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	seed := 17
	approx, err := eng.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(g, seed, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for i := range exact {
		l1 += math.Abs(exact[i] - approx[i])
	}
	if bound := eng.ErrorBound(); l1 > bound {
		t.Errorf("L1 error %g exceeds Theorem 2 bound %g", l1, bound)
	}
	top, err := eng.TopK(seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 || top[0].Score < top[9].Score {
		t.Errorf("TopK malformed: %+v", top)
	}
}

func TestDefaults(t *testing.T) {
	o := Defaults()
	if o.C != 0.15 || o.Eps != 1e-9 || o.S != 5 || o.T != 10 {
		t.Errorf("Defaults = %+v", o)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	g := demoGraph()
	bad := Defaults()
	bad.S = 12
	bad.T = 3
	if _, err := New(g, bad); err == nil {
		t.Error("S > T accepted")
	}
	bad = Defaults()
	bad.C = 2
	if _, err := New(g, bad); err == nil {
		t.Error("C = 2 accepted")
	}
}

func TestAutoTune(t *testing.T) {
	g := RandomCommunityGraph(200, 1600, 4, 7)
	eng, err := AutoTune(g, Defaults(), 0.9, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	s, tt := eng.Params()
	if s < 1 || tt <= s {
		t.Errorf("tuned params S=%d T=%d", s, tt)
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := demoGraph()
	path := filepath.Join(t.TempDir(), "g.tsv")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
	// The in-memory reader must accept hand-written input too.
	g3, err := ReadGraph(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumNodes() != 3 {
		t.Errorf("nodes %d", g3.NumNodes())
	}
}

func TestPageRankAPI(t *testing.T) {
	g := demoGraph()
	pr, err := PageRank(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range pr {
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("PageRank mass %g", sum)
	}
}

func TestTopKOf(t *testing.T) {
	top := TopKOf([]float64{0.1, 0.9, 0.5}, 2)
	if top[0].Index != 1 || top[1].Index != 2 {
		t.Errorf("TopKOf = %+v", top)
	}
}

func TestIndexBytes(t *testing.T) {
	g := demoGraph()
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if eng.IndexBytes() != int64(g.NumNodes())*8 {
		t.Errorf("IndexBytes = %d", eng.IndexBytes())
	}
}

// The Engine documents itself as safe for concurrent queries; verify under
// the race detector (go test -race).
func TestConcurrentQueries(t *testing.T) {
	g := RandomCommunityGraph(300, 2700, 6, 77)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			got, err := eng.Query(seed)
			if err != nil {
				errCh <- err
				return
			}
			if seed == 7 {
				for j := range got {
					if got[j] != want[j] {
						errCh <- fmt.Errorf("concurrent result differs at %d", j)
						return
					}
				}
			}
		}(i % 10)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// minAllocBytes is the fewest heap bytes one call of fn allocates, over
// runs calls. The minimum, not the mean: an occasional scratch
// (re)allocation — GC empties the sync.Pool, and the race detector drops
// pooled entries at random — is not the steady state, while an allocation
// every call makes still shows.
func minAllocBytes(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestTopKAllocationIndependentOfN: a top-k answer costs O(k) heap bytes,
// whatever n is. The score vector is ranked as it is computed and never
// written, on unsharded and sharded (permuted) engines in both precisions;
// TopK allocates its k entries and nothing else.
func TestTopKAllocationIndependentOfN(t *testing.T) {
	const n, k = 20000, 10
	const perAnswer = 4 << 10 // an n-vector here is 160 KiB
	g := shuffledGraph(t, RandomCommunityGraph(n, 8*n, 8, 5), 1)
	seeds := []int{1, 77, 4096, 19999}
	for _, row := range []struct {
		prec   Precision
		shards int
	}{
		{Float64, 0},
		{Float32, 0},
		{Float64, 2},
		{Float32, 2},
	} {
		o := Defaults()
		o.Precision = row.prec
		eng, err := NewSharded(g, row.shards, o)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v shards=%d", row.prec, row.shards)
		if row.shards > 1 && !isPermuted(eng) {
			t.Fatalf("%s: the shard plan left the engine unpermuted", name)
		}
		var err1, err2 error
		one := minAllocBytes(21, func() { _, err1 = eng.TopK(seeds[2], k) })
		batch := minAllocBytes(21, func() { _, err2 = eng.TopKBatch(seeds, k, 2) })
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		t.Logf("%s: TopK %d B/call, TopKBatch(%d seeds) %d B/call", name, one, len(seeds), batch)
		if entries := uint64(k * unsafe.Sizeof(Entry{})); one != entries {
			t.Errorf("%s: TopK allocates %d B/call, want exactly its %d entries (%d B)", name, one, k, entries)
		}
		if batch > uint64(len(seeds))*perAnswer {
			t.Errorf("%s: TopKBatch allocates %d B/call for %d seeds, want ≤ %d per seed", name, batch, len(seeds), perAnswer)
		}
	}
}
