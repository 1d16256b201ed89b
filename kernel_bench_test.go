// Microbenchmarks for the layout- and precision-aware kernels: one Ãᵀ·x
// application (the unit of all CPI work) across kernel variants × node
// orderings, plus end-to-end QueryBatch on reordered/float32 engines. Run
// with:
//
//	go test -bench 'MulT|QueryBatchOrdered' -benchtime 200ms
//
// The orderings matter to the gather kernel because they cluster in-links:
// after a degree or BFS permutation the hot source nodes share cache lines.
// The float32 kernel halves the bytes per gathered element. The kernels'
// zero-allocation contract is a unit test (graph.TestWalkMulTAllocationFree);
// end-to-end perf is judged by bench/.
package tpa

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/reorder"
	"tpa/internal/rwr"
	"tpa/internal/shard"
	"tpa/internal/sparse"
)

// The kernel workload is the acceptance graph: a 100k-node SBM with
// community structure and skewed degrees, whose 12n-byte working set is far
// beyond L2 — the regime where layout and precision pay.
const (
	kernelBenchNodes = 100_000
	kernelBenchComms = 50
)

var kernelBench struct {
	once  sync.Once
	g     *Graph
	walks map[string]*graph.Walk
}

func kernelWalks(b *testing.B) map[string]*graph.Walk {
	b.Helper()
	kernelBench.once.Do(func() {
		kernelBench.g = RandomSBMGraph(kernelBenchNodes, kernelBenchComms, 12, 0.9, 7)
		kernelBench.walks = map[string]*graph.Walk{
			"natural": graph.NewWalk(kernelBench.g, graph.DanglingSelfLoop),
		}
		for _, ord := range []reorder.Order{reorder.OrderDegree, reorder.OrderBFS} {
			perm, err := reorder.ComputeOrdering(kernelBench.g, ord)
			if err != nil {
				panic(err)
			}
			pg, err := graph.Permute(kernelBench.g, perm)
			if err != nil {
				panic(err)
			}
			kernelBench.walks[string(ord)] = graph.NewWalk(pg, graph.DanglingSelfLoop)
		}
	})
	return kernelBench.walks
}

// BenchmarkMulT times one full Ãᵀ·x application per kernel variant × node
// ordering: plain (the serial float64 scatter) and f32 (the same kernel
// over float32 storage). edges/s is the cross-variant comparable rate.
func BenchmarkMulT(b *testing.B) {
	walks := kernelWalks(b)
	edges := float64(kernelBench.g.NumEdges())
	for _, kind := range []string{"plain", "f32"} {
		for _, ord := range []string{"natural", "degree", "bfs"} {
			w := walks[ord]
			b.Run(kind+"-"+ord, func(b *testing.B) {
				n := w.N()
				x := make(sparse.Vector, n)
				y := make(sparse.Vector, n)
				for i := range x {
					x[i] = 1 / float64(n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				switch kind {
				case "plain":
					for i := 0; i < b.N; i++ {
						w.MulT(x, y)
					}
				case "f32":
					x32 := sparse.Round32(x, sparse.NewVector32(n))
					y32 := sparse.NewVector32(n)
					for i := 0; i < b.N; i++ {
						w.MulT32(x32, y32)
					}
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(b.N)*edges/sec, "edges/s")
				}
			})
		}
	}
}

// BenchmarkShardMulT is the in-process gate of shard.Operator's kernel
// switch: one float32 Ãᵀ·x answered by the serial push kernel, by the
// 2-shard pull fan-out, and by Operator.MulT32, which must track the cheaper
// of the two away from the crossing. Each graph gets two input families:
//
//   - nonzero=P%: a density sweep, P % of the rows set at random;
//   - hops: the x(0..3) iterates of fixed seeds, the inputs a query's
//     S−1 = 4 hops actually feed the operator (ns/op is per hop).
//
// The graphs are the natural-order 100k-node SBM (unprefixed) and an R-MAT
// graph of 2¹⁷ nodes (rmat/), whose skewed degrees make a query's later
// hops dense enough for the pull side (the 4th hop of five of the eight
// seeds): walk cost differs between graphs with the same degree sequence
// (arXiv 0908.0976).
func BenchmarkShardMulT(b *testing.B) {
	shardMulTCases(b, "", kernelWalks(b)["natural"])
	shardMulTCases(b, "rmat/", rmatBenchWalk())
}

// rmatBenchWalk is the R-MAT benchmark graph: gen.DefaultRMAT(17, 12·2¹⁷, 1),
// 131k nodes and about 1.5M edges.
var rmatBenchWalk = sync.OnceValue(func() *graph.Walk {
	return graph.NewWalk(gen.DefaultRMAT(17, 12<<17, 1), graph.DanglingSelfLoop)
})

// shardMulTHops returns the x(0..3) iterates of eight fixed seeds in
// float32: x(0) = c·e_s and x(i) = (1−c)·Ãᵀx(i−1), as the online phase
// computes them at the default c.
func shardMulTHops(w *graph.Walk) []sparse.Vector32 {
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

func shardMulTCases(b *testing.B, prefix string, w *graph.Walk) {
	n := w.N()
	bounds := []int{0, n / 2, n}
	op, err := shard.NewOperator(w, bounds)
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
	inputs = append(inputs, input{"hops", shardMulTHops(w)})
	for _, in := range inputs {
		for _, k := range []struct {
			name string
			mul  func(x sparse.Vector32)
		}{
			{"push", func(x sparse.Vector32) { w.MulT32(x, y) }},
			{"pull", func(x sparse.Vector32) {
				prep := w.MulTPrep32(x)
				rwr.ForEachBlock(bounds, func(lo, hi int) { w.MulTBlock32(x, y, lo, hi, prep) })
			}},
			{"operator", func(x sparse.Vector32) { op.MulT32(x, y) }},
		} {
			b.Run(prefix+in.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.mul(in.xs[i%len(in.xs)])
				}
			})
		}
	}
}

var orderedBench struct {
	once sync.Once
	engs map[string]*Engine
}

// orderedBenchEngines builds the QueryBatch acceptance matrix on the kernel
// SBM graph: the natural-order float64 baseline against layout/precision
// variants and a 2-shard float32 engine (the shape the batch-f32-mmap
// serving workload runs). All engines answer in external ids, so the
// workload is identical by construction.
func orderedBenchEngines(b *testing.B) map[string]*Engine {
	b.Helper()
	kernelWalks(b) // force graph generation outside the timer
	orderedBench.once.Do(func() {
		orderedBench.engs = map[string]*Engine{}
		for _, v := range []struct {
			name   string
			order  string
			prec   Precision
			shards int
		}{
			{"natural-f64", "", Float64, 1},
			{"degree-f64", "degree", Float64, 1},
			{"degree-f32", "degree", Float32, 1},
			{"shards2-f32", "", Float32, 2},
		} {
			o := Defaults()
			o.Order, o.Precision = v.order, v.prec
			eng, err := NewSharded(kernelBench.g, v.shards, o)
			if err != nil {
				panic(err)
			}
			orderedBench.engs[v.name] = eng
		}
	})
	return orderedBench.engs
}

// BenchmarkQueryBatchOrdered is the acceptance benchmark for the layout +
// precision work: the degree-ordered float32 engine must clearly beat the
// natural-order float64 baseline on the same 100k-node SBM workload, and
// the sharded float32 engine — whose sparse hops push like a plain
// engine's — must stay beside them rather than pay a dense pull per hop.
func BenchmarkQueryBatchOrdered(b *testing.B) {
	engs := orderedBenchEngines(b)
	seeds := make([]int, batchBenchSize)
	for i := range seeds {
		seeds[i] = (i * 104729) % kernelBenchNodes
	}
	for _, name := range []string{"natural-f64", "degree-f64", "degree-f32", "shards2-f32"} {
		eng := engs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryBatch(seeds, 8); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
}
