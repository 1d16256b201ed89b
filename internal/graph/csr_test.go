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
