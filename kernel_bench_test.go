// Microbenchmarks for the precision-aware kernels: one Ãᵀ·x application
// (the unit of all CPI work) per kernel variant, plus end-to-end QueryBatch
// on float32 and sharded engines. Run with:
//
//	go test -bench 'MulT|QueryBatchOrdered' -benchtime 200ms
//
// The float32 kernel halves the bytes per gathered element. The kernels'
// zero-allocation contract is a unit test (graph.TestWalkMulTAllocationFree);
// end-to-end perf is judged by bench/.
package tpa

import (
	"sync"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// The kernel workload is the acceptance graph: a 100k-node SBM with
// community structure and skewed degrees, whose 12n-byte working set is far
// beyond L2 — the regime where precision pays.
const (
	kernelBenchNodes = 100_000
	kernelBenchComms = 50
)

var kernelBench struct {
	once sync.Once
	g    *Graph
	walk *graph.Walk
}

func kernelWalk(b *testing.B) *graph.Walk {
	b.Helper()
	kernelBench.once.Do(func() {
		kernelBench.g = RandomSBMGraph(kernelBenchNodes, kernelBenchComms, 12, 0.9, 7)
		kernelBench.walk = graph.NewWalk(kernelBench.g, graph.DanglingSelfLoop)
	})
	return kernelBench.walk
}

// BenchmarkMulT times one full Ãᵀ·x application of a dense x per precision:
// plain (float64) and f32 (the same kernels over float32 storage); the walk
// pulls such an x over its row blocks. edges/s is the cross-variant
// comparable rate. BenchmarkMulTSwitch in internal/graph times each side of
// the push/pull switch.
func BenchmarkMulT(b *testing.B) {
	w := kernelWalk(b)
	edges := float64(kernelBench.g.NumEdges())
	for _, kind := range []string{"plain", "f32"} {
		b.Run(kind, func(b *testing.B) {
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

// rmatBenchGraph is the R-MAT benchmark graph: gen.DefaultRMAT(17, 12·2¹⁷,
// 1), 131k nodes and about 1.5M edges.
var rmatBenchGraph = sync.OnceValue(func() *Graph { return gen.DefaultRMAT(17, 12<<17, 1) })

var orderedBench struct {
	once sync.Once
	engs map[string]*Engine
}

// orderedBenchEngines builds the QueryBatch acceptance matrix on the kernel
// SBM graph: the unsharded float64 baseline against a 2-shard float32
// engine (the shape the batch-f32-mmap serving workload runs). Both engines
// answer in external ids, so the workload is identical by construction.
func orderedBenchEngines(b *testing.B) map[string]*Engine {
	b.Helper()
	kernelWalk(b) // force graph generation outside the timer
	orderedBench.once.Do(func() {
		orderedBench.engs = map[string]*Engine{}
		for _, v := range []struct {
			name   string
			prec   Precision
			shards int
		}{
			{"natural-f64", Float64, 1},
			{"shards2-f32", Float32, 2},
		} {
			o := Defaults()
			o.Precision = v.prec
			eng, err := NewSharded(kernelBench.g, v.shards, o)
			if err != nil {
				panic(err)
			}
			orderedBench.engs[v.name] = eng
		}
	})
	return orderedBench.engs
}

// BenchmarkQueryBatchOrdered compares batch throughput on the 100k-node
// SBM workload: the sharded float32 engine — whose sparse hops push like a
// plain engine's — must stay beside the unsharded float64 baseline rather
// than pay a dense pull per hop.
func BenchmarkQueryBatchOrdered(b *testing.B) {
	engs := orderedBenchEngines(b)
	seeds := make([]int, batchBenchSize)
	for i := range seeds {
		seeds[i] = (i * 104729) % kernelBenchNodes
	}
	for _, name := range []string{"natural-f64", "shards2-f32"} {
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
