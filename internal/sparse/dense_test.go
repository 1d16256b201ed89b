package sparse

import (
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := m.MulVec(Vector{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v", y)
	}
	yt := m.MulVecT(Vector{1, 1})
	if yt[0] != 5 || yt[1] != 7 || yt[2] != 9 {
		t.Errorf("MulVecT = %v", yt)
	}
}

func TestDenseMulAgainstMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 4, 5)
	b := randDense(rng, 5, 3)
	c := a.Mul(b)
	// Column j of C must equal A·(column j of B).
	for j := 0; j < 3; j++ {
		col := NewVector(5)
		for i := 0; i < 5; i++ {
			col[i] = b.At(i, j)
		}
		want := a.MulVec(col)
		for i := 0; i < 4; i++ {
			if !almostEq(c.At(i, j), want[i], 1e-12) {
				t.Fatalf("Mul mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestDenseTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randDense(rng, 3, 6)
	at := a.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose wrong")
			}
		}
	}
}

func TestDenseAddSubScale(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := a.Clone()
	a.Add(b).Sub(b).Scale(3)
	if a.At(1, 1) != 12 {
		t.Errorf("chain result %v", a.Data)
	}
}

func TestDenseDropAndNNZ(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1e-9, -1e-9, 0.5, -0.5})
	if got := a.NNZ(0); got != 4 {
		t.Fatalf("NNZ = %d", got)
	}
	dropped := a.Drop(1e-6)
	if dropped != 2 || a.NNZ(0) != 2 {
		t.Fatalf("Drop = %d, nnz = %d", dropped, a.NNZ(0))
	}
}

func TestDenseBytesShrinksAfterDrop(t *testing.T) {
	a := NewDense(4, 4)
	for i := range a.Data {
		a.Data[i] = 1e-12
	}
	before := a.Bytes()
	a.Drop(1e-6)
	if after := a.Bytes(); after >= before {
		t.Errorf("Bytes did not shrink: %d -> %d", before, after)
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	v := Vector{4, 5, 6}
	got := e.MulVec(v)
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("Eye·v != v")
		}
	}
}

func TestLURoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randDense(rng, n, n)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.AddAt(i, i, float64(n)+1)
		}
		f, err := Factorize(a)
		if err != nil {
			t.Fatalf("Factorize: %v", err)
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		ax := a.MulVec(x)
		if ax.L1Dist(b) > 1e-8 {
			t.Fatalf("residual %g too large", ax.L1Dist(b))
		}
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 8
	a := randDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.AddAt(i, i, 10)
	}
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-9) {
				t.Fatalf("A·A⁻¹ not identity at (%d,%d): %g", i, j, prod.At(i, j))
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Factorize(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factorize(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square")
	}
}

func TestLUDet(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{3, 1, 1, 3})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 8, 1e-12) {
		t.Errorf("Det = %v, want 8", f.Det())
	}
}

func TestLUSolveDense(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 5
	a := randDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.AddAt(i, i, 8)
	}
	b := randDense(rng, n, 3)
	f, _ := Factorize(a)
	x, err := f.SolveDense(b)
	if err != nil {
		t.Fatal(err)
	}
	ax := a.Mul(x)
	for i := range ax.Data {
		if !almostEq(ax.Data[i], b.Data[i], 1e-8) {
			t.Fatal("SolveDense residual too large")
		}
	}
}
