// Benchmarks for the concurrent query subsystem: batch query throughput
// against a serial Query loop, and sharded vs serial preprocessing. Run
// with:
//
//	go test -bench 'QueryBatch|PreprocessParallel' -benchtime 10x
//
// On a multi-core machine BenchmarkQueryBatch/workers=8 should show ≥ 2×
// the throughput of BenchmarkQueryBatchSerial; the pooled scratch vectors
// also drive per-query allocations to ~zero (visible with -benchmem).
package tpa

import (
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

// BenchmarkQueryBatchSerial is the baseline: the same seeds answered by a
// plain serial Query loop.
func BenchmarkQueryBatchSerial(b *testing.B) {
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

// BenchmarkQueryBatch fans the same workload out over the worker pool.
func BenchmarkQueryBatch(b *testing.B) {
	eng := batchBenchEngine(b)
	seeds := batchBenchSeeds()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryBatch(seeds, workers); err != nil {
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
// each precision: one seed's online phase and rank per op, cycling through
// the batch seeds.
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
	seeds := batchBenchSeeds()
	for _, eng := range []*Engine{batchBench.eng, batchBench.eng32} {
		b.Run(eng.Precision().String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TopK(seeds[i%len(seeds)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func reportQPS(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*batchBenchSize)/sec, "queries/s")
	}
}

// BenchmarkPreprocessParallel times TPA's preprocessing phase with the CPI
// sparse-matvec sharded over row blocks at increasing worker counts.
func BenchmarkPreprocessParallel(b *testing.B) {
	batchBenchEngine(b) // force graph generation outside the timer
	w := graph.NewWalk(batchBench.g, graph.DanglingSelfLoop)
	cfg := rwr.DefaultConfig()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.PreprocessParallel(w, cfg, core.DefaultParams(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
