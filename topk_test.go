package tpa_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpa"
)

// Differential tests of the top-k paths: every engine configuration's TopK,
// TopKBatch and their deadline forms must return exactly the entries
// TopKOf picks from the same engine's Query answer, in index and score bits
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

// checkTopKPaths holds every top-k path of eng to TopKOf of its Query
// answers for seeds, at each k, under a live context and under one that is
// already cancelled. The seed set {seeds[0], seeds[1], seeds[0]} (needs
// two seeds; one listed twice) holds TopKDeadline to TopKOf of
// QueryDeadline for that set the same way.
func checkTopKPaths(t *testing.T, tag string, eng *tpa.Engine, seeds, ks []int) {
	t.Helper()
	live := context.Background()
	dead, cancel := context.WithCancel(live)
	cancel()
	full := make([][]float64, len(seeds))
	partial := make([][]float64, len(seeds))
	partialMeta := make([]tpa.QueryMeta, len(seeds))
	for i, seed := range seeds {
		var err error
		if full[i], err = eng.Query(seed); err != nil {
			t.Fatal(err)
		}
		if partial[i], partialMeta[i], err = eng.QueryDeadline(dead, []int{seed}); err != nil {
			t.Fatal(err)
		}
	}
	set := []int{seeds[0], seeds[1], seeds[0]}
	for _, ctx := range []context.Context{live, dead} {
		scores, want, err := eng.QueryDeadline(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			at := fmt.Sprintf("%s set %v k %d cancelled=%v", tag, set, k, ctx == dead)
			top, meta, err := eng.TopKDeadline(ctx, set, k)
			if err != nil {
				t.Fatal(err)
			}
			if meta != want {
				t.Fatalf("%s: TopKDeadline meta %+v, QueryDeadline's %+v", at, meta, want)
			}
			checkEntries(t, at+" TopKDeadline", top, tpa.TopKOf(scores, k))
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
			top, meta, err := eng.TopKDeadline(live, []int{seed}, k)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Partial {
				t.Fatalf("%s: TopKDeadline under a live context came back partial: %+v", at, meta)
			}
			checkEntries(t, at+" TopKDeadline", top, want)
			// An expired context: the same reduced-S answer as QueryDeadline.
			top, meta, err = eng.TopKDeadline(dead, []int{seed}, k)
			if err != nil {
				t.Fatal(err)
			}
			if meta != partialMeta[i] {
				t.Fatalf("%s: cancelled TopKDeadline meta %+v, QueryDeadline's %+v", at, meta, partialMeta[i])
			}
			checkEntries(t, at+" cancelled TopKDeadline", top, tpa.TopKOf(partial[i], k))
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
			tops, metas, err := eng.TopKBatchDeadline(live, seeds, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seeds {
				if metas[i].Partial {
					t.Fatalf("%s seed %d: TopKBatchDeadline under a live context came back partial", at, seeds[i])
				}
				checkEntries(t, fmt.Sprintf("%s seed %d TopKBatchDeadline", at, seeds[i]), tops[i], tpa.TopKOf(full[i], k))
			}
			tops, metas, err = eng.TopKBatchDeadline(dead, seeds, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seeds {
				if metas[i] != partialMeta[i] {
					t.Fatalf("%s seed %d: cancelled TopKBatchDeadline meta %+v, QueryDeadline's %+v", at, seeds[i], metas[i], partialMeta[i])
				}
				checkEntries(t, fmt.Sprintf("%s seed %d cancelled TopKBatchDeadline", at, seeds[i]), tops[i], tpa.TopKOf(partial[i], k))
			}
		}
	}
}

// TestTopKMatchesTopKOfQuery runs checkTopKPaths over every engine
// configuration (ordering × precision × storage × shards, plus the plain
// engine), before and after a write, for k = 1, 10, n and n+5.
func TestTopKMatchesTopKOfQuery(t *testing.T) {
	const nodes = 400
	g := tpa.RandomSBMGraph(nodes, 4, 5, 0.85, 31)
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
	variants := append([]accuracyVariant{{"natural-f64", "", tpa.Float64, 0, false, 0, 1e-6}}, accuracyVariants...)
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

// TestTopKBoundaryTiesReordered: a reordered engine used to rank ties by
// internal id and re-sort only the k entries it kept, so a tie at the k-th
// score returned a different set than TopKOf(Query) — leaf 41 for leaf 2 at
// seed 0, k 3 under hubspoke. Ties now break on the external id.
func TestTopKBoundaryTiesReordered(t *testing.T) {
	g := twoHubGraph()
	for _, v := range []accuracyVariant{
		{"hubspoke-f64", "hubspoke", tpa.Float64, 0, false, 0, 1e-6},
		{"hubspoke-f32", "hubspoke", tpa.Float32, 0, false, f32Slack, f32MassTol},
		{"2shard-f64", "", tpa.Float64, 2, false, 0, 1e-6},
	} {
		t.Run(v.name, func(t *testing.T) {
			checkTopKPaths(t, v.name, v.build(t, g), []int{0, 7}, []int{3, 5, 10})
		})
	}
}
