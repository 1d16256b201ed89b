package tpa_test

import (
	"context"
	"fmt"
	"math"

	"tpa"
)

// ExampleNew demonstrates the preprocess-once / query-many flow on a
// synthetic community graph.
func ExampleNew() {
	g := tpa.RandomCommunityGraph(1000, 12000, 8, 7)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		panic(err)
	}
	scores, err := eng.Query(123)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scores for %d nodes, total mass %.2f\n", len(scores), sum(scores))
	fmt.Printf("index size: %d bytes (8 per node)\n", eng.IndexBytes())
	// Output:
	// scores for 1000 nodes, total mass 1.00
	// index size: 8000 bytes (8 per node)
}

// ExampleEngine_TopK ranks the nodes most relevant to a seed.
func ExampleEngine_TopK() {
	g := tpa.RandomCommunityGraph(1000, 12000, 8, 7)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		panic(err)
	}
	top, err := eng.TopK(123, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("top result is the seed itself: %v\n", top[0].Index == 123)
	fmt.Printf("scores descend: %v\n", top[0].Score >= top[1].Score && top[1].Score >= top[2].Score)
	// Output:
	// top result is the seed itself: true
	// scores descend: true
}

// ExampleEngine_Answer answers one request per form: each seed on its own
// over a pool of 4 workers, with results identical to serial Query calls
// position by position, and a seed set's top 3, where the walk restarts
// uniformly over the set.
func ExampleEngine_Answer() {
	g := tpa.RandomCommunityGraph(1000, 12000, 8, 7)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	seeds := []int{11, 42, 11, 900}
	batch, err := eng.Answer(ctx, tpa.Request{Seeds: seeds, Each: true, Workers: 4})
	if err != nil {
		panic(err)
	}
	serial, err := eng.Query(seeds[1])
	if err != nil {
		panic(err)
	}
	var maxDiff float64
	for i := range serial {
		if d := math.Abs(batch[1].Scores[i] - serial[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("%d result vectors of %d scores each\n", len(batch), len(batch[0].Scores))
	fmt.Printf("batch matches serial Query: %v\n", maxDiff == 0)
	set, err := eng.Answer(ctx, tpa.Request{Seeds: []int{11, 900}, K: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("one set answer of %d entries, complete: %v\n", len(set[0].Top), !set[0].Meta.Partial)
	// Output:
	// 4 result vectors of 1000 scores each
	// batch matches serial Query: true
	// one set answer of 3 entries, complete: true
}

// ExampleExact validates the approximation against the exact solver.
func ExampleExact() {
	g := tpa.RandomCommunityGraph(1000, 12000, 8, 7)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		panic(err)
	}
	approx, err := eng.Query(123)
	if err != nil {
		panic(err)
	}
	exact, err := tpa.Exact(g, 123, tpa.Defaults())
	if err != nil {
		panic(err)
	}
	var l1 float64
	for i := range exact {
		l1 += math.Abs(exact[i] - approx[i])
	}
	fmt.Printf("error within Theorem 2 bound: %v\n", l1 <= eng.ErrorBound())
	// Output:
	// error within Theorem 2 bound: true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
