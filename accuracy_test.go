package tpa_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tpa"
	"tpa/internal/gen"
)

// Property-based accuracy regression suite: on random SBM graphs of varying
// shape, the engine's answers must honor the paper's guarantees —
// ‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S (Theorem 2), unit total mass, and a top-k
// head consistent with exact RWR wherever the error budget allows ranks to
// be distinguished at all. The same properties are asserted again after
// dynamic edge mutations, so the incremental reindex path is held to the
// same bound as fresh preprocessing.

func l1dist(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// checkAccuracy asserts the Theorem-2 bound, mass conservation, TopK
// consistency with Query, and margin-aware head agreement with exact RWR
// for one engine/graph/seed triple. g must be the graph the engine serves,
// in EXTERNAL id order (for sharded engines that is the original input
// graph, not engine.Graph()).
func checkAccuracy(t *testing.T, tag string, eng *tpa.Engine, g *tpa.Graph, seed int, o tpa.Options) {
	t.Helper()
	checkAccuracyTol(t, tag, eng, g, seed, o, 0, 1e-6)
}

// checkAccuracyTol is checkAccuracy with explicit tolerances for float32
// engines: slack widens the Theorem-2 bound by the index-rounding error and
// massTol the unit-mass check (float32 keeps ~7 significant digits per
// element, so both degrade together).
func checkAccuracyTol(t *testing.T, tag string, eng *tpa.Engine, g *tpa.Graph, seed int, o tpa.Options, slack, massTol float64) {
	t.Helper()
	approx, err := eng.Query(seed)
	if err != nil {
		t.Fatalf("%s: query: %v", tag, err)
	}
	exact, err := tpa.Exact(g, seed, o)
	if err != nil {
		t.Fatalf("%s: exact: %v", tag, err)
	}

	// Theorem 2: the L1 error never exceeds the a-priori bound (plus the
	// declared float32 rounding slack, zero for float64 engines).
	dist := l1dist(approx, exact)
	if bound := eng.ErrorBound() + slack; dist > bound {
		t.Errorf("%s seed %d: L1 error %g exceeds ErrorBound %g", tag, seed, dist, bound)
	}

	// The walk is column-stochastic under the self-loop policy, so both
	// vectors carry (ε-truncated) unit mass.
	var mass float64
	for _, v := range approx {
		mass += v
	}
	if math.Abs(mass-1) > massTol {
		t.Errorf("%s seed %d: query mass %g, want ≈1", tag, seed, mass)
	}

	// TopK must be exactly the head of the score vector it serves.
	const k = 10
	top, err := eng.TopK(seed, k)
	if err != nil {
		t.Fatalf("%s: topk: %v", tag, err)
	}
	want := tpa.TopKOf(approx, k)
	if len(top) != len(want) {
		t.Fatalf("%s seed %d: TopK returned %d entries, want %d", tag, seed, len(top), len(want))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("%s seed %d: TopK[%d] = %+v, want %+v", tag, seed, i, top[i], want[i])
		}
	}

	// Head agreement: per-entry errors are bounded by the measured L1
	// distance, so whenever exact scores of two nodes differ by more than
	// that, TPA must rank them the same way. This checks TopK ordering
	// against exact RWR precisely on the pairs the error budget can
	// distinguish — near-ties are legitimately unordered.
	idx := make([]int, len(exact))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return exact[idx[i]] > exact[idx[j]] })
	head := idx
	if len(head) > 2*k {
		head = head[:2*k]
	}
	for i := 0; i < len(head); i++ {
		for j := i + 1; j < len(head); j++ {
			a, b := head[i], head[j]
			if exact[a]-exact[b] > dist && approx[a] <= approx[b] {
				t.Errorf("%s seed %d: exact ranks %d (%.3g) above %d (%.3g) by more than the error %.3g, but TPA orders them %g ≤ %g",
					tag, seed, a, exact[a], b, exact[b], dist, approx[a], approx[b])
			}
		}
	}
}

func TestAccuracyPropertySBM(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		nodes := 150 + rng.Intn(450)
		comms := 2 + rng.Intn(4)
		deg := 3 + rng.Float64()*5
		pin := 0.7 + rng.Float64()*0.25
		g := tpa.RandomSBMGraph(nodes, comms, deg, pin, rng.Int63())
		o := tpa.Defaults()
		eng, err := tpa.New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int{rng.Intn(nodes), rng.Intn(nodes), rng.Intn(nodes)}
		for _, seed := range seeds {
			checkAccuracy(t, "static", eng, g, seed, o)
		}

		// Random mutation batch: fresh edges in, existing edges out.
		var adds, removes [][2]int
		for i := 0; i < 5+rng.Intn(10); i++ {
			adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
			u := rng.Intn(nodes)
			if ns := g.OutNeighbors(u); len(ns) > 0 {
				removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
			}
		}
		mutated, _, err := eng.ApplyEdges(adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		mg := mutated.Graph()
		if mg == nil {
			t.Fatal("mutated engine has no graph")
		}
		for _, seed := range seeds {
			checkAccuracy(t, "mutated", mutated, mg, seed, o)
		}
	}
}

// float32 keeps ~7 significant digits; with unit total mass spread over
// 400 nodes the rounding contributes ≪ 1e-4 in L1 — orders of magnitude
// under the Theorem-2 bound, but asserted explicitly so a precision
// regression (e.g. accumulating in float32) fails loudly.
const f32Slack, f32MassTol = 1e-4, 1e-4

// accuracyVariant is one engine configuration: precision × storage
// (shards, memory mapping). The shard plan is the only node layout, so the
// sharded rows are the permuted ones.
type accuracyVariant struct {
	name           string
	prec           tpa.Precision
	shards         int
	mmap           bool
	slack, massTol float64
}

// accuracyVariants is the configuration matrix every engine-level
// equivalence check runs over.
var accuracyVariants = []accuracyVariant{
	{"natural-f32", tpa.Float32, 0, false, f32Slack, f32MassTol},
	{"natural-f64-mmap", tpa.Float64, 0, true, 0, 1e-6},
	{"2shard-f64", tpa.Float64, 2, false, 0, 1e-6},
	{"2shard-f32", tpa.Float32, 2, false, f32Slack, f32MassTol},
	{"2shard-f32-mmap", tpa.Float32, 2, true, f32Slack, f32MassTol},
}

// options returns the engine options of the variant.
func (v accuracyVariant) options() tpa.Options {
	o := tpa.Defaults()
	o.Precision = v.prec
	return o
}

// build builds the variant's engine on g. A mapped variant is saved as
// TPAM and served from the mapping, which the test closes at cleanup. A
// sharded variant must come out permuted: its rows are the ones that hold
// the id remapping to account, so an identity plan would void them.
func (v accuracyVariant) build(t *testing.T, g *tpa.Graph) *tpa.Engine {
	t.Helper()
	eng, err := tpa.NewSharded(g, v.shards, v.options())
	if err != nil {
		t.Fatal(err)
	}
	if v.shards > 1 && !tpa.IsPermuted(eng) {
		t.Fatalf("%s: the shard plan left the engine unpermuted (build it on a tpa.ShuffledGraph)", v.name)
	}
	if !v.mmap {
		return eng
	}
	path := t.TempDir() + "/g.tpam"
	if err := eng.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	if eng, err = tpa.LoadSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestAccuracyVariants holds the precision- and storage-aware engines to
// the same guarantees as the baseline: every combination of index
// precision (float64, float32) and storage (sharded, memory-mapped) must
// meet the Theorem-2 bound against exact RWR on the ORIGINAL (external-id)
// graph — within explicit float32 tolerances where the index is rounded —
// both statically and after a mutation batch. The graph is relabeled at
// random, so the shard plan moves ids and communities are scattered over
// them; the exact reference never sees the permutation, so an id leak in
// the remapping boundary sends a seed to another community and shows up as
// an L1 error past the bound.
func TestAccuracyVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const nodes = 400
	g := tpa.ShuffledGraph(t, tpa.RandomSBMGraph(nodes, 4, 5, 0.85, 31), 1)

	// One mutation batch shared by all variants, so every engine is held to
	// the same mutated reference graph.
	var adds, removes [][2]int
	for i := 0; i < 12; i++ {
		adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		u := rng.Intn(nodes)
		if ns := g.OutNeighbors(u); len(ns) > 0 {
			removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
		}
	}
	// The external-id mutated reference graph comes from an unsharded
	// engine: for sharded engines, engine.Graph() is in internal order and
	// must NOT be used as the exact reference.
	o := tpa.Defaults()
	nat, err := tpa.New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	natMut, _, err := nat.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	refG := natMut.Graph()

	seeds := []int{3, 141, 255, 399}
	for _, v := range accuracyVariants {
		t.Run(v.name, func(t *testing.T) {
			vo := v.options()
			eng := v.build(t, g)
			for _, seed := range seeds {
				checkAccuracyTol(t, "static/"+v.name, eng, g, seed, vo, v.slack, v.massTol)
			}
			mutated, _, err := eng.ApplyEdges(adds, removes)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				checkAccuracyTol(t, "mutated/"+v.name, mutated, refG, seed, vo, v.slack, v.massTol)
			}
		})
	}
}

// TestAccuracyAfterMutationStorm chains many mutation batches and asserts
// the final engine still meets its error bound against exact RWR on the
// final graph — the regression test for error drift in stacked incremental
// reindexes.
func TestAccuracyAfterMutationStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nodes = 250
	g := tpa.RandomSBMGraph(nodes, 3, 5, 0.85, 41)
	o := tpa.Defaults()
	eng, err := tpa.New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng
	for step := 0; step < 10; step++ {
		var adds, removes [][2]int
		for i := 0; i < 8; i++ {
			adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		}
		cur, _, err = cur.ApplyEdges(adds, removes)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, seed := range []int{0, 17, 123, 249} {
		checkAccuracy(t, "storm", cur, cur.Graph(), seed, o)
	}
}

// TestAccuracySharded holds scatter-gather engines to the same Theorem-2
// guarantees as the baseline, both freshly built and after a TPAM snapshot
// round trip: the exact reference always runs on the original external-id
// graph, so any id leak across the shard permutation or the zero-copy
// loader shows up as a gross L1 error.
func TestAccuracySharded(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const nodes = 350
	g := tpa.RandomSBMGraph(nodes, 4, 5, 0.85, 23)
	o := tpa.Defaults()
	seeds := []int{0, rng.Intn(nodes), rng.Intn(nodes), nodes - 1}
	for _, shards := range []int{2, 7} {
		eng, err := tpa.NewSharded(g, shards, o)
		if err != nil {
			t.Fatal(err)
		}
		tag := "sharded"
		for _, seed := range seeds {
			checkAccuracy(t, tag, eng, g, seed, o)
		}
		path := t.TempDir() + "/s.tpam"
		if err := eng.SaveSnapshotMmap(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := tpa.LoadSnapshotMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			checkAccuracy(t, tag+"/mmap", loaded, g, seed, o)
		}
		loaded.Close()
	}
}

// TestShardedMidQuerySwitch covers the query a sharded engine answers with
// both kernels: on a graph dense enough (average out-degree 50) that the
// frontier outgrows the push kernel's share of the edges two hops from the
// seed, the first hops push and the rest pull. 2- and 3-shard engines must
// still match the unsharded engine of the same precision — float64 to
// 1e-12, float32 within the suite's float32 slack, both in L1 — through
// Query, TopKBatch on several workers, and a top-k request.
func TestShardedMidQuerySwitch(t *testing.T) {
	const nodes, k = 2000, 10
	g := gen.ErdosRenyi(nodes, 50*nodes, 41)
	seeds := []int{0, 7, 1234, nodes - 1}
	for _, v := range []struct {
		name string
		prec tpa.Precision
		tol  float64
	}{
		{"float64", tpa.Float64, 1e-12},
		{"float32", tpa.Float32, f32Slack},
	} {
		o := tpa.Defaults()
		o.Precision = v.prec
		base, err := tpa.New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, len(seeds))
		for i, seed := range seeds {
			if want[i], err = base.Query(seed); err != nil {
				t.Fatal(err)
			}
		}
		// checkTop holds a top-k answer to the unsharded scores without
		// demanding an order between near-ties: every entry carries its
		// node's score, and the i-th best score is the unsharded i-th best.
		checkTop := func(tag string, i int, top []tpa.Entry) {
			t.Helper()
			ref := tpa.TopKOf(want[i], k)
			if len(top) != len(ref) {
				t.Fatalf("%s seed %d: %d entries, want %d", tag, seeds[i], len(top), len(ref))
			}
			for j, e := range top {
				if math.Abs(e.Score-want[i][e.Index]) > v.tol || math.Abs(e.Score-ref[j].Score) > v.tol {
					t.Fatalf("%s seed %d: entry %d = %+v, unsharded has %g there and %+v at that rank",
						tag, seeds[i], j, e, want[i][e.Index], ref[j])
				}
			}
		}
		for _, shards := range []int{2, 3} {
			tag := fmt.Sprintf("%s/%d shards", v.name, shards)
			eng, err := tpa.NewSharded(g, shards, o)
			if err != nil {
				t.Fatal(err)
			}
			push0, pull0 := eng.ShardMatvecs()
			for i, seed := range seeds {
				got, err := eng.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				if d := l1dist(got, want[i]); d > v.tol {
					t.Fatalf("%s seed %d: Query is %g from the unsharded engine in L1, tolerance %g", tag, seed, d, v.tol)
				}
			}
			push1, pull1 := eng.ShardMatvecs()
			if push1 == push0 || pull1 == pull0 {
				t.Fatalf("%s: %d pushed and %d pulled applications over %d queries; the graph no longer makes a query switch kernels",
					tag, push1-push0, pull1-pull0, len(seeds))
			}
			tops, err := eng.TopKBatch(seeds, k, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seeds {
				checkTop(tag+" TopKBatch", i, tops[i])
				got := answer(t, eng, context.Background(), tpa.Request{Seeds: seeds[i : i+1], K: k})[0]
				if got.Meta.Partial {
					t.Fatalf("%s seed %d: a top-k request without a deadline came back partial: %+v", tag, seeds[i], got.Meta)
				}
				checkTop(tag+" top-k request", i, got.Top)
			}
		}
	}
}

// TestPlainMidQuerySwitch is the dense-hop gate of a plain engine: its walk
// switches kernels per hop like a sharded one, so on the average-degree-50
// ER graph of TestShardedMidQuerySwitch and on an R-MAT graph, whose
// skewed degrees make a query's later hops dense, a plain engine's queries
// must both push and pull (read off its walk's counters). Its answers must
// still match the 2-shard engine within 1e-12 in L1, and Exact within
// ErrorBound, through Query, TopKBatch and a top-k request.
func TestPlainMidQuerySwitch(t *testing.T) {
	const k = 10
	for _, c := range []struct {
		name  string
		g     *tpa.Graph
		seeds []int
	}{
		{"er", gen.ErdosRenyi(2000, 50*2000, 41), []int{0, 7, 1234, 1999}},
		{"rmat", gen.DefaultRMAT(13, 12<<13, 1), []int{0, 1, 2, 3, 5}},
	} {
		o := tpa.Defaults()
		plain, err := tpa.New(c.g, o)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := tpa.NewSharded(c.g, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		bound := plain.ErrorBound()
		want := make([][]float64, len(c.seeds))
		exact := make([][]float64, len(c.seeds))
		push0, pull0 := tpa.WalkMatvecs(plain)
		for i, seed := range c.seeds {
			if c.g.OutDegree(seed) == 0 {
				t.Fatalf("%s: seed %d dangles", c.name, seed)
			}
			got, err := plain.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = sharded.Query(seed); err != nil {
				t.Fatal(err)
			}
			if exact[i], err = tpa.Exact(c.g, seed, o); err != nil {
				t.Fatal(err)
			}
			if d := l1dist(got, want[i]); d > 1e-12 {
				t.Fatalf("%s seed %d: Query is %g from the 2-shard engine in L1", c.name, seed, d)
			}
			if d := l1dist(got, exact[i]); d > bound {
				t.Fatalf("%s seed %d: Query is %g from Exact in L1, bound %g", c.name, seed, d, bound)
			}
		}
		push1, pull1 := tpa.WalkMatvecs(plain)
		if push1 == push0 || pull1 == pull0 {
			t.Fatalf("%s: %d pushed and %d pulled applications over %d queries; the plain engine no longer switches kernels mid-query",
				c.name, push1-push0, pull1-pull0, len(c.seeds))
		}
		// checkTop holds a top-k answer to the 2-shard scores within 1e-12
		// and to the exact ones within the bound, summed over its entries,
		// without demanding an order between near-ties.
		checkTop := func(tag string, i int, top []tpa.Entry) {
			t.Helper()
			ref := tpa.TopKOf(want[i], k)
			if len(top) != len(ref) {
				t.Fatalf("%s %s seed %d: %d entries, want %d", c.name, tag, c.seeds[i], len(top), len(ref))
			}
			var toShard, toRank, toExact float64
			for j, e := range top {
				toShard += math.Abs(e.Score - want[i][e.Index])
				toRank += math.Abs(e.Score - ref[j].Score)
				toExact += math.Abs(e.Score - exact[i][e.Index])
			}
			if toShard > 1e-12 || toRank > 1e-12 || toExact > bound {
				t.Fatalf("%s %s seed %d: L1 %g from the 2-shard scores, %g from its ranking, %g from Exact (bound %g)",
					c.name, tag, c.seeds[i], toShard, toRank, toExact, bound)
			}
		}
		tops, err := plain.TopKBatch(c.seeds, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.seeds {
			checkTop("TopKBatch", i, tops[i])
			got := answer(t, plain, context.Background(), tpa.Request{Seeds: c.seeds[i : i+1], K: k})[0]
			if got.Meta.Partial {
				t.Fatalf("%s seed %d: a top-k request without a deadline came back partial: %+v", c.name, c.seeds[i], got.Meta)
			}
			checkTop("top-k request", i, got.Top)
		}
	}
}
