package graph_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// BenchmarkMulTSwitch is the in-process gate of the Walk's kernel switch:
// one float32 Ãᵀ·x answered by the serial push kernel, by the 2-block pull
// fan-out, and by MulT32, which must track the cheaper of the two away from
// the crossing. Each graph gets two input families:
//
//   - nonzero=P%: a density sweep, P % of the rows set at random;
//   - hops: the x(0..3) iterates of fixed seeds, the inputs a query's
//     S−1 = 4 hops actually feed the operator (ns/op is per hop).
//
// The graphs are a natural-order 100k-node SBM (unprefixed) and an R-MAT
// graph of 2¹⁷ nodes (rmat/), whose skewed degrees make a query's later
// hops dense enough for the pull side (the 4th hop of five of the eight
// seeds): walk cost differs between graphs with the same degree sequence
// (arXiv 0908.0976). Run with:
//
//	go test ./internal/graph -run '^$' -bench MulTSwitch -benchtime 200ms
func BenchmarkMulTSwitch(b *testing.B) {
	mulTSwitchCases(b, "", switchBenchGraphs().sbm)
	mulTSwitchCases(b, "rmat/", switchBenchGraphs().rmat)
}

// switchBenchGraphs are the 100k-node SBM with 50 communities and average
// out-degree 12, and gen.DefaultRMAT(17, 12·2¹⁷, 1): 131k nodes and about
// 1.5M edges.
var switchBenchGraphs = sync.OnceValue(func() (gs struct{ sbm, rmat *graph.Graph }) {
	gs.sbm = gen.SBM(gen.SBMConfig{Nodes: 100_000, Communities: 50, AvgOutDeg: 12, PIn: 0.9, Seed: 7, Uniform: true})
	gs.rmat = gen.DefaultRMAT(17, 12<<17, 1)
	return gs
})

// mulTSwitchHops returns the x(0..3) iterates of eight fixed seeds in
// float32: x(0) = c·e_s and x(i) = (1−c)·Ãᵀx(i−1), as the online phase
// computes them at the default c.
func mulTSwitchHops(w *graph.Walk) []sparse.Vector32 {
	const c = 0.15
	n := w.N()
	var hops []sparse.Vector32
	for i := 0; i < 8; i++ {
		x := sparse.NewVector32(n)
		x[(i*104729)%n] = c
		for hop := 0; hop < 4; hop++ {
			hops = append(hops, x)
			next := w.MulT32(x, sparse.NewVector32(n))
			for j := range next {
				next[j] *= 1 - c
			}
			x = next
		}
	}
	return hops
}

func mulTSwitchCases(b *testing.B, prefix string, g *graph.Graph) {
	n := g.NumNodes()
	w, err := graph.NewWalk(g, graph.DanglingSelfLoop).WithBlocks([]int{0, n / 2, n})
	if err != nil {
		b.Fatal(err)
	}
	y := sparse.NewVector32(n)
	type input struct {
		name string
		xs   []sparse.Vector32
	}
	var inputs []input
	for _, pct := range []float64{0.1, 1, 6, 25, 100} {
		x := sparse.NewVector32(n)
		for _, u := range rand.New(rand.NewSource(3)).Perm(n)[:int(float64(n)*pct/100)] {
			x[u] = 1 / float32(n)
		}
		inputs = append(inputs, input{fmt.Sprintf("nonzero=%g%%", pct), []sparse.Vector32{x}})
	}
	inputs = append(inputs, input{"hops", mulTSwitchHops(w)})
	for _, in := range inputs {
		for _, k := range []struct {
			name string
			mul  func(x sparse.Vector32)
		}{
			{"push", func(x sparse.Vector32) { w.Push32(x, y) }},
			{"pull", func(x sparse.Vector32) { w.Pull32(x, y) }},
			{"switch", func(x sparse.Vector32) { w.MulT32(x, y) }},
		} {
			b.Run(prefix+in.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.mul(in.xs[i%len(in.xs)])
				}
			})
		}
	}
}
