// Benchmarks for the concurrent query subsystem: batch query throughput
// against a serial Query loop, and preprocessing per graph. Run with:
//
//	go test -bench 'Query|AnswerEach|PreprocessParallel' -benchtime 10x
//
// On a multi-core machine BenchmarkAnswerEach/workers=8 should show ≥ 2×
// the throughput of BenchmarkQuerySerial; the pooled scratch vectors
// also drive per-query allocations to ~zero (visible with -benchmem).
package tpa

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"tpa/internal/core"
	"tpa/internal/graph"
	"tpa/internal/rwr"
)

// batchBenchNodes sizes the benchmark workload: a 100k-node community graph
// with skewed degrees, the traffic shape TPA targets.
const (
	batchBenchNodes = 100_000
	batchBenchEdges = 1_200_000
	batchBenchSize  = 64 // queries per batch iteration
)

var batchBench struct {
	once   sync.Once
	g      *Graph
	eng    *Engine
	eng32  *Engine // the same graph served in Float32, built on first use
	once32 sync.Once
}

func batchBenchEngine(b *testing.B) *Engine {
	b.Helper()
	batchBench.once.Do(func() {
		batchBench.g = RandomCommunityGraph(batchBenchNodes, batchBenchEdges, 50, 7)
		eng, err := New(batchBench.g, Defaults())
		if err != nil {
			b.Fatal(err)
		}
		batchBench.eng = eng
	})
	return batchBench.eng
}

func batchBenchSeeds() []int {
	seeds := make([]int, batchBenchSize)
	for i := range seeds {
		seeds[i] = (i * 104729) % batchBenchNodes // spread over communities
	}
	return seeds
}

// BenchmarkQuerySerial is the baseline: the same seeds answered by a
// plain serial Query loop.
func BenchmarkQuerySerial(b *testing.B) {
	eng := batchBenchEngine(b)
	seeds := batchBenchSeeds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range seeds {
			if _, err := eng.Query(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportQPS(b)
}

// BenchmarkAnswerEach fans the same workload out over the worker pool: one
// score vector per seed.
func BenchmarkAnswerEach(b *testing.B) {
	eng := batchBenchEngine(b)
	seeds := batchBenchSeeds()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Answer(context.Background(), Request{Seeds: seeds, Each: true, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
}

// BenchmarkTopKBatch measures the serving-shaped variant, where full score
// vectors stay in pooled scratch and only top-k entries are returned.
func BenchmarkTopKBatch(b *testing.B) {
	eng := batchBenchEngine(b)
	seeds := batchBenchSeeds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TopKBatch(seeds, 10, 8); err != nil {
			b.Fatal(err)
		}
	}
	reportQPS(b)
}

// BenchmarkTopK times a single-seed cold Engine.TopK on the same graph in
// each precision, and in float64 on the R-MAT benchmark graph, whose later
// hops go dense where the community graph's stay local: one seed's online
// phase and rank per op, cycling through the batch seeds.
func BenchmarkTopK(b *testing.B) {
	batchBenchEngine(b)
	batchBench.once32.Do(func() {
		o := Defaults()
		o.Precision = Float32
		eng, err := New(batchBench.g, o)
		if err != nil {
			b.Fatal(err)
		}
		batchBench.eng32 = eng
	})
	rmat, err := rmatBenchEngine()
	if err != nil {
		b.Fatal(err)
	}
	seeds := batchBenchSeeds()
	for _, row := range []struct {
		name string
		eng  *Engine
	}{
		{"float64", batchBench.eng},
		{"float32", batchBench.eng32},
		{"rmat-float64", rmat},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := row.eng.TopK(seeds[i%len(seeds)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rmatBenchEngine is the float64 engine over rmatBenchGraph.
var rmatBenchEngine = sync.OnceValues(func() (*Engine, error) { return New(rmatBenchGraph(), Defaults()) })

func reportQPS(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*batchBenchSize)/sec, "queries/s")
	}
}

// BenchmarkPreprocessParallel times TPA's preprocessing phase, which stops
// on its tail bound, per graph: sbm (the 100k-node kernel SBM) and rmat
// (the 131k-node R-MAT, which mixes slower and runs more applications).
// iters/op reports the applications each build ran; the ε loop ran 116.
func BenchmarkPreprocessParallel(b *testing.B) {
	cfg := rwr.DefaultConfig()
	for _, row := range []struct {
		name string
		walk func() *graph.Walk
	}{
		{"sbm", func() *graph.Walk { return kernelWalk(b) }},
		{"rmat", func() *graph.Walk { return graph.NewWalk(rmatBenchGraph(), graph.DanglingSelfLoop) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			w := row.walk() // generated outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				tp, err := core.PreprocessParallel(w, cfg, core.DefaultParams(), 0)
				if err != nil {
					b.Fatal(err)
				}
				iters = tp.PreprocessIters()
			}
			b.ReportMetric(float64(iters), "iters/op")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
