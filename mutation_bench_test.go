package tpa_test

import (
	"math/rand"
	"testing"

	"tpa"
)

// Mutation benchmark: the cost of keeping a live engine current under
// steady edge churn. It chains ApplyEdges (each iteration mutates the
// engine the previous one returned) over a sequence of distinct batches and
// reports the propagation steps each reindex spent next to ns/op.

const (
	benchMutateNodes = 20000
	// benchChurnEdges is the adds (and removes) per batch: a typical "edges
	// arrived" tick.
	benchChurnEdges = 8
)

func benchMutationEngine(b *testing.B, o tpa.Options) *tpa.Engine {
	b.Helper()
	g := tpa.RandomSBMGraph(benchMutateNodes, 8, 12, 0.9, 7)
	eng, err := tpa.New(g, o)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// churnPool draws distinct edge batches from a fixed pool: live holds the
// graph's edges, absent the edges of a second draw of the same model that
// the graph lacks, and every batch moves benchChurnEdges of each across, so
// the graph keeps its size and structure however long the chain runs.
type churnPool struct {
	rng          *rand.Rand
	live, absent [][2]int
}

func newChurnPool(g *tpa.Graph) *churnPool {
	other := tpa.RandomSBMGraph(benchMutateNodes, 8, 12, 0.9, 8)
	p := &churnPool{rng: rand.New(rand.NewSource(9))}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			p.live = append(p.live, [2]int{u, int(v)})
		}
		for _, v := range other.OutNeighbors(u) {
			if !g.HasEdge(u, int(v)) {
				p.absent = append(p.absent, [2]int{u, int(v)})
			}
		}
	}
	return p
}

// take removes benchChurnEdges random edges from *from and returns them.
func (p *churnPool) take(from *[][2]int) [][2]int {
	s := *from
	out := make([][2]int, benchChurnEdges)
	for i := range out {
		j := p.rng.Intn(len(s))
		out[i] = s[j]
		s[j] = s[len(s)-1]
		s = s[:len(s)-1]
	}
	*from = s
	return out
}

func (p *churnPool) batch() (adds, removes [][2]int) {
	adds, removes = p.take(&p.absent), p.take(&p.live)
	p.live = append(p.live, adds...)
	p.absent = append(p.absent, removes...)
	return adds, removes
}

// BenchmarkApplyEdgesIncremental chains b.N ApplyEdges calls over the
// pool's batches.
func BenchmarkApplyEdgesIncremental(b *testing.B) {
	eng := benchMutationEngine(b, tpa.Defaults())
	pool := newChurnPool(eng.Graph())
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, stats, err := eng.ApplyEdges(pool.batch())
		if err != nil {
			b.Fatal(err)
		}
		iters += stats.ReindexIters
		eng = next
	}
	b.ReportMetric(float64(iters)/float64(b.N), "ReindexIters/op")
}
