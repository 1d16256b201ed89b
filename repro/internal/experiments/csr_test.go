package experiments

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/graph"
	"tpa/internal/sparse"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilderN(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func diamond() *graph.Graph {
	return graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

// columnSums returns m's column sums: all 1 for a column-stochastic matrix.
func columnSums(m *graph.CSRMatrix) sparse.Vector {
	s := sparse.NewVector(m.N)
	for p := range m.Idx {
		s[m.Idx[p]] += m.Val[p]
	}
	return s
}

func TestSpGEMMAgainstMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 20, 50)
	m := graph.NormalizedTranspose(graph.NewWalk(g, graph.DanglingSelfLoop))
	m2 := SpGEMM(m, m, 0)
	for trial := 0; trial < 10; trial++ {
		x := sparse.NewVector(20)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := m.MulVec(m.MulVec(x))
		got := m2.MulVec(x)
		if want.L1Dist(got) > 1e-10 {
			t.Fatalf("SpGEMM disagrees with repeated matvec: %g", want.L1Dist(got))
		}
	}
}

func TestPowerStochasticAndNNZGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(rng, 40, 80)
	m := graph.NormalizedTranspose(graph.NewWalk(g, graph.DanglingSelfLoop))
	var prev int64 = -1
	for i := 1; i <= 4; i++ {
		p := Power(m, i, 0)
		for j, s := range columnSums(p) {
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("power %d column %d sums to %v", i, j, s)
			}
		}
		// The paper's Fig 4(a): nonzeros grow (weakly) with i on sparse
		// graphs far from their dense closure.
		if i > 1 && p.NNZ() < prev {
			t.Logf("note: nnz decreased at power %d (%d -> %d)", i, prev, p.NNZ())
		}
		prev = p.NNZ()
	}
}

func TestPowerPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := graph.NormalizedTranspose(graph.NewWalk(diamond(), graph.DanglingSelfLoop))
	Power(m, 0, 0)
}

func TestCSRColumn(t *testing.T) {
	g := diamond()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	m := graph.NormalizedTranspose(w)
	for j := 0; j < g.NumNodes(); j++ {
		want := w.Column(j)
		got := Column(m, j)
		if want.L1Dist(got) > 1e-12 {
			t.Fatalf("Column(%d) mismatch", j)
		}
	}
}

func TestBlockCounts(t *testing.T) {
	g := diamond()
	m := graph.NormalizedTranspose(graph.NewWalk(g, graph.DanglingSelfLoop))
	counts := BlockCounts(m, 2)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != m.NNZ() {
		t.Fatalf("block counts sum %d != nnz %d", total, m.NNZ())
	}
	if len(counts) != 4 {
		t.Fatalf("len = %d", len(counts))
	}
}

func TestSpGEMMDropTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomGraph(rng, 30, 90)
	m := graph.NormalizedTranspose(graph.NewWalk(g, graph.DanglingSelfLoop))
	full := SpGEMM(m, m, 0)
	dropped := SpGEMM(m, m, 0.05)
	if dropped.NNZ() > full.NNZ() {
		t.Fatal("drop tolerance increased nnz")
	}
	for _, v := range dropped.Val {
		if math.Abs(v) <= 0.05 {
			t.Fatalf("entry %v survived drop tolerance", v)
		}
	}
}
