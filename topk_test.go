package tpa_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpa"
	"tpa/internal/gen"
)

// Differential tests of the top-k paths: every engine configuration's TopK,
// TopKBatch and top-k requests, under a live context and a cancelled one,
// must return exactly the entries TopKOf picks from the same engine's
// score answer, in index and score bits
// — ties at the k-th score included, whatever internal order the engine
// runs in.

// checkEntries fails unless got and want agree entry by entry, the scores
// to the bit.
func checkEntries(t *testing.T, tag string, got, want []tpa.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d = %+v, TopKOf(Query) has %+v", tag, i, got[i], want[i])
		}
	}
}

// answer runs req through Engine.Answer, failing the test on an error.
func answer(t *testing.T, eng *tpa.Engine, ctx context.Context, req tpa.Request) []tpa.Answer {
	t.Helper()
	as, err := eng.Answer(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// checkTopKPaths holds every top-k path of eng to TopKOf of its Query
// answers for seeds, at each k, under a live context and under one that is
// already cancelled. The seed set {seeds[0], seeds[1], seeds[0]} (needs
// two seeds; one listed twice) holds the set's top-k answer to TopKOf of
// its score answer the same way.
func checkTopKPaths(t *testing.T, tag string, eng *tpa.Engine, seeds, ks []int) {
	t.Helper()
	live := context.Background()
	dead, cancel := context.WithCancel(live)
	cancel()
	full := make([][]float64, len(seeds))
	for i, seed := range seeds {
		var err error
		if full[i], err = eng.Query(seed); err != nil {
			t.Fatal(err)
		}
	}
	partial := answer(t, eng, dead, tpa.Request{Seeds: seeds, Each: true})
	set := []int{seeds[0], seeds[1], seeds[0]}
	for _, ctx := range []context.Context{live, dead} {
		want := answer(t, eng, ctx, tpa.Request{Seeds: set})[0]
		for _, k := range ks {
			at := fmt.Sprintf("%s set %v k %d cancelled=%v", tag, set, k, ctx == dead)
			got := answer(t, eng, ctx, tpa.Request{Seeds: set, K: k})[0]
			if got.Meta != want.Meta {
				t.Fatalf("%s: top-k meta %+v, the score answer's %+v", at, got.Meta, want.Meta)
			}
			checkEntries(t, at+" set top-k", got.Top, tpa.TopKOf(want.Scores, k))
		}
	}
	for _, k := range ks {
		for i, seed := range seeds {
			want := tpa.TopKOf(full[i], k)
			at := fmt.Sprintf("%s seed %d k %d", tag, seed, k)
			top, err := eng.TopK(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			checkEntries(t, at+" TopK", top, want)
			got := answer(t, eng, live, tpa.Request{Seeds: []int{seed}, K: k})[0]
			if got.Meta.Partial {
				t.Fatalf("%s: top-k under a live context came back partial: %+v", at, got.Meta)
			}
			checkEntries(t, at+" top-k", got.Top, want)
			// An expired context: the same reduced-S answer as the scores'.
			got = answer(t, eng, dead, tpa.Request{Seeds: []int{seed}, K: k})[0]
			if got.Meta != partial[i].Meta {
				t.Fatalf("%s: cancelled top-k meta %+v, the score answer's %+v", at, got.Meta, partial[i].Meta)
			}
			checkEntries(t, at+" cancelled top-k", got.Top, tpa.TopKOf(partial[i].Scores, k))
		}
		for _, workers := range []int{1, 3} {
			at := fmt.Sprintf("%s k %d workers %d", tag, k, workers)
			tops, err := eng.TopKBatch(seeds, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seeds {
				checkEntries(t, fmt.Sprintf("%s seed %d TopKBatch", at, seeds[i]), tops[i], tpa.TopKOf(full[i], k))
			}
			each := tpa.Request{Seeds: seeds, K: k, Each: true, Workers: workers}
			for i, got := range answer(t, eng, live, each) {
				if got.Meta.Partial {
					t.Fatalf("%s seed %d: each-seed top-k under a live context came back partial", at, seeds[i])
				}
				checkEntries(t, fmt.Sprintf("%s seed %d each", at, seeds[i]), got.Top, tpa.TopKOf(full[i], k))
			}
			for i, got := range answer(t, eng, dead, each) {
				if got.Meta != partial[i].Meta {
					t.Fatalf("%s seed %d: cancelled each-seed top-k meta %+v, the score answer's %+v", at, seeds[i], got.Meta, partial[i].Meta)
				}
				checkEntries(t, fmt.Sprintf("%s seed %d cancelled each", at, seeds[i]), got.Top, tpa.TopKOf(partial[i].Scores, k))
			}
		}
	}
}

// TestTopKMatchesTopKOfQuery runs checkTopKPaths over every engine
// configuration (ordering × precision × storage × shards, plus the plain
// engine), before and after a write, for k = 1, 10, n and n+5.
func TestTopKMatchesTopKOfQuery(t *testing.T) {
	const nodes = 400
	g := tpa.ShuffledGraph(t, tpa.RandomSBMGraph(nodes, 4, 5, 0.85, 31), 1)
	rng := rand.New(rand.NewSource(78))
	var adds, removes [][2]int
	for i := 0; i < 12; i++ {
		adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		u := rng.Intn(nodes)
		if ns := g.OutNeighbors(u); len(ns) > 0 {
			removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
		}
	}
	seeds := []int{3, 141, 399}
	ks := []int{1, 10, nodes, nodes + 5}
	variants := append([]accuracyVariant{{"natural-f64", tpa.Float64, 0, false, 0, 1e-6}}, accuracyVariants...)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			eng := v.build(t, g)
			checkTopKPaths(t, "static", eng, seeds, ks)
			written, _, err := eng.ApplyEdges(adds, removes)
			if err != nil {
				t.Fatal(err)
			}
			checkTopKPaths(t, "written", written, seeds, ks)
		})
	}
}

// twoHubGraph has two hubs, 0 and 1, each pointing to the same 40 leaves
// 2..41, and every leaf pointing back to both hubs: all leaves tie, so any
// k between 3 and 41 cuts through a tie.
func twoHubGraph() *tpa.Graph {
	b := tpa.NewGraphBuilder()
	for leaf := 2; leaf < 42; leaf++ {
		for hub := 0; hub < 2; hub++ {
			b.AddEdge(hub, leaf)
			b.AddEdge(leaf, hub)
		}
	}
	return b.Build()
}

// twinTwoHubGraph lays two disjoint copies of twoHubGraph over interleaved
// ids (node l of copy c is 2l+c). A 2-shard plan puts one copy in each
// shard, so nodes that tie across the copies — every leaf with every leaf
// when no seed favours a copy — sit in different shards, in an internal
// order that is not their external one.
func twinTwoHubGraph() *tpa.Graph {
	one := twoHubGraph()
	b := tpa.NewGraphBuilder()
	for u := 0; u < one.NumNodes(); u++ {
		for _, v := range one.OutNeighbors(u) {
			for c := 0; c < 2; c++ {
				b.AddEdge(2*u+c, 2*int(v)+c)
			}
		}
	}
	return b.Build()
}

// TestTopKBoundaryTiesReordered: a permuted engine used to rank ties by
// internal id and re-sort only the k entries it kept, so a tie at the k-th
// score returned a different set than TopKOf(Query) — leaf 41 for leaf 2 at
// seed 0, k 3 under a hub-last layout. Ties now break on the external id.
func TestTopKBoundaryTiesReordered(t *testing.T) {
	g := twinTwoHubGraph()
	for _, v := range []accuracyVariant{
		{"2shard-f64", tpa.Float64, 2, false, 0, 1e-6},
		{"2shard-f32", tpa.Float32, 2, false, f32Slack, f32MassTol},
	} {
		t.Run(v.name, func(t *testing.T) {
			checkTopKPaths(t, v.name, v.build(t, g), []int{0, 7}, []int{3, 5, 10})
		})
	}
}

// TestSetAnswerIsMeanOfEach is the first metamorphic identity of the
// request form. RWR is linear in the restart vector and the stranger part
// is shared, so the answer to a seed set is the mean of its seeds' own
// answers: within 1e-12 in L1 in float64 and within the float32 slack in
// float32, on plain and 2-shard engines over a randomly relabeled SBM and
// an R-MAT graph with dangling rows (one of them a seed). The set's top k
// is TopKOf of its score vector, to the bit.
func TestSetAnswerIsMeanOfEach(t *testing.T) {
	rmat := gen.DefaultRMAT(13, 4<<13, 3)
	dangling := -1
	for u := 0; u < rmat.NumNodes() && dangling < 0; u++ {
		if rmat.OutDegree(u) == 0 {
			dangling = u
		}
	}
	if dangling < 0 {
		t.Fatal("the R-MAT graph has no dangling row")
	}
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		g     *tpa.Graph
		seeds []int
	}{
		{"sbm", tpa.ShuffledGraph(t, tpa.RandomSBMGraph(600, 4, 6, 0.85, 5), 2), []int{3, 141, 599, 141}},
		{"rmat", rmat, []int{0, 1, dangling, 77, 0}},
	} {
		for _, v := range []struct {
			name   string
			prec   tpa.Precision
			shards int
			tol    float64
		}{
			{"f64", tpa.Float64, 0, 1e-12},
			{"f32", tpa.Float32, 0, f32Slack},
			{"2shard-f64", tpa.Float64, 2, 1e-12},
			{"2shard-f32", tpa.Float32, 2, f32Slack},
		} {
			tag := c.name + "/" + v.name
			o := tpa.Defaults()
			o.Precision = v.prec
			eng, err := tpa.NewSharded(c.g, v.shards, o)
			if err != nil {
				t.Fatal(err)
			}
			set := answer(t, eng, ctx, tpa.Request{Seeds: c.seeds})[0]
			mean := make([]float64, len(set.Scores))
			for _, a := range answer(t, eng, ctx, tpa.Request{Seeds: c.seeds, Each: true, Workers: 2}) {
				for j, x := range a.Scores {
					mean[j] += x / float64(len(c.seeds))
				}
			}
			if d := l1dist(set.Scores, mean); d > v.tol {
				t.Errorf("%s: the set's answer is %g from the mean of its seeds' answers in L1, tolerance %g", tag, d, v.tol)
			}
			for _, k := range []int{1, 10, 100} {
				top := answer(t, eng, ctx, tpa.Request{Seeds: c.seeds, K: k})[0].Top
				checkEntries(t, fmt.Sprintf("%s k %d", tag, k), top, tpa.TopKOf(set.Scores, k))
			}
		}
	}
}
