package graph

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/sparse"
)

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilderN(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestNormalizedTransposeMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 25, 60)
	w := NewWalk(g, DanglingSelfLoop)
	m := NormalizedTranspose(w)
	for trial := 0; trial < 10; trial++ {
		x := sparse.NewVector(25)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := w.MulT(x, sparse.NewVector(25))
		got := m.MulVec(x)
		if want.L1Dist(got) > 1e-10 {
			t.Fatalf("materialized Ãᵀ disagrees with operator: %g", want.L1Dist(got))
		}
	}
}

// columnSums returns m's column sums: all 1 for a column-stochastic matrix.
func columnSums(m *CSRMatrix) sparse.Vector {
	s := sparse.NewVector(m.N)
	for p := range m.Idx {
		s[m.Idx[p]] += m.Val[p]
	}
	return s
}

func TestNormalizedTransposeColumnStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 30, 45) // sparse → some dangling nodes likely
	m := NormalizedTranspose(NewWalk(g, DanglingSelfLoop))
	for j, s := range columnSums(m) {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d sums to %v", j, s)
		}
	}
}

func TestSpGEMMAgainstMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 20, 50)
	m := NormalizedTranspose(NewWalk(g, DanglingSelfLoop))
	m2 := m.Mul(m, 0)
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
	m := NormalizedTranspose(NewWalk(g, DanglingSelfLoop))
	var prev int64 = -1
	for i := 1; i <= 4; i++ {
		p := m.Power(i, 0)
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
	m := NormalizedTranspose(NewWalk(diamond(), DanglingSelfLoop))
	m.Power(0, 0)
}

func TestCSRColumn(t *testing.T) {
	g := diamond()
	w := NewWalk(g, DanglingSelfLoop)
	m := NormalizedTranspose(w)
	for j := 0; j < g.NumNodes(); j++ {
		want := w.Column(j)
		got := m.Column(j)
		if want.L1Dist(got) > 1e-12 {
			t.Fatalf("Column(%d) mismatch", j)
		}
	}
}

func TestBlockCounts(t *testing.T) {
	g := diamond()
	m := NormalizedTranspose(NewWalk(g, DanglingSelfLoop))
	counts := m.BlockCounts(2)
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
	m := NormalizedTranspose(NewWalk(g, DanglingSelfLoop))
	full := m.Mul(m, 0)
	dropped := m.Mul(m, 0.05)
	if dropped.NNZ() > full.NNZ() {
		t.Fatal("drop tolerance increased nnz")
	}
	for _, v := range dropped.Val {
		if math.Abs(v) <= 0.05 {
			t.Fatalf("entry %v survived drop tolerance", v)
		}
	}
}
