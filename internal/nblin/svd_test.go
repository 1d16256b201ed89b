package nblin

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/sparse"
)

func randDense(rng *rand.Rand, rows, cols int) *sparse.Dense {
	m := sparse.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestJacobiEigenSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 6
	m := randDense(rng, n, n)
	a := m.Mul(m.T()) // symmetric PSD
	vals, vecs := JacobiEigen(a, 100)
	// Check A·v = λ·v for each eigenpair.
	for j := 0; j < n; j++ {
		v := sparse.NewVector(n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, j)
		}
		av := a.MulVec(v)
		lv := v.Clone().Scale(vals[j])
		if av.L1Dist(lv) > 1e-6*(1+math.Abs(vals[j])) {
			t.Fatalf("eigenpair %d residual %g", j, av.L1Dist(lv))
		}
	}
	// Trace preservation.
	var trA, sumL float64
	for i := 0; i < n; i++ {
		trA += a.At(i, i)
		sumL += vals[i]
	}
	if !almostEq(trA, sumL, 1e-8) {
		t.Errorf("trace %g vs eigen sum %g", trA, sumL)
	}
}

func TestTruncatedSVDRecoversLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	// Build an exactly rank-3 matrix 20x15.
	u := randDense(rng, 20, 3)
	v := randDense(rng, 15, 3)
	a := u.Mul(v.T())
	res, err := TruncatedSVD(DenseOperator{a}, 3, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction applied to random vectors should match A.
	for trial := 0; trial < 5; trial++ {
		x := sparse.NewVector(15)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := a.MulVec(x)
		got := res.ApproxMulVec(x)
		if want.L1Dist(got) > 1e-6*(1+want.L1()) {
			t.Fatalf("rank-3 reconstruction error %g", want.L1Dist(got))
		}
	}
}

func TestTruncatedSVDSingularValuesDescend(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randDense(rng, 12, 12)
	res, err := TruncatedSVD(DenseOperator{a}, 5, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < res.Rank(); i++ {
		if res.S[i] > res.S[i-1]+1e-9 {
			t.Fatalf("singular values not descending: %v", res.S)
		}
	}
}

func TestTruncatedSVDErrorDecreasesWithRank(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := randDense(rng, 16, 16)
	x := sparse.NewVector(16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := a.MulVec(x)
	var prev float64 = math.Inf(1)
	for _, k := range []int{2, 6, 16} {
		res, err := TruncatedSVD(DenseOperator{a}, k, 80, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		e := want.L1Dist(res.ApproxMulVec(x))
		if e > prev+1e-6 {
			t.Fatalf("error increased with rank: k=%d err=%g prev=%g", k, e, prev)
		}
		prev = e
	}
	if prev > 1e-6 {
		t.Errorf("full-rank SVD should reconstruct exactly, err=%g", prev)
	}
}

func TestTruncatedSVDBadRank(t *testing.T) {
	if _, err := TruncatedSVD(DenseOperator{sparse.NewDense(3, 3)}, 0, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for rank 0")
	}
}
