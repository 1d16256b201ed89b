package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorNorms(t *testing.T) {
	v := Vector{1, -2, 3, -4}
	if got := v.L1(); got != 10 {
		t.Errorf("L1 = %v, want 10", got)
	}
	if got := v.L2(); !almostEq(got, math.Sqrt(30), 1e-12) {
		t.Errorf("L2 = %v, want sqrt(30)", got)
	}
	if got := v.Sum(); got != -2 {
		t.Errorf("Sum = %v, want -2", got)
	}
}

func TestVectorCloneIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestVectorAxpyScale(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{10, 20, 30}
	v.Axpy(0.5, w)
	want := Vector{6, 12, 18}
	for i := range v {
		if !almostEq(v[i], want[i], 1e-12) {
			t.Fatalf("Axpy = %v, want %v", v, want)
		}
	}
	v.Scale(2)
	if v[2] != 36 {
		t.Fatalf("Scale got %v", v)
	}
}

// Every binary operation panics on a length mismatch, in both widths.
func TestVectorLengthMismatchPanics(t *testing.T) {
	t.Run("float64", mismatchPanics[float64])
	t.Run("float32", mismatchPanics[float32])
}

func mismatchPanics[T Float](t *testing.T) {
	for name, op := range map[string]func(a, b Vec[T]){
		"Add":     func(a, b Vec[T]) { a.Add(b) },
		"Sub":     func(a, b Vec[T]) { a.Sub(b) },
		"Axpy":    func(a, b Vec[T]) { a.Axpy(2, b) },
		"Dot":     func(a, b Vec[T]) { a.Dot(b) },
		"L1Dist":  func(a, b Vec[T]) { a.L1Dist(b) },
		"Convert": func(a, b Vec[T]) { Convert(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			op(Vec[T]{1}, Vec[T]{1, 2})
		}()
	}
}

// The float32 vector runs the same bodies as the float64 one, with
// reductions accumulated in float64.
func TestVector32MatchesVector(t *testing.T) {
	v := Vector{0.1, -2.5, 3.25, 1e-3}
	v32 := Round32(v, NewVector32(len(v)))
	wide := Convert(v32, NewVector(len(v)))
	for i := range v {
		if float32(v[i]) != v32[i] || wide[i] != float64(v32[i]) {
			t.Fatalf("entry %d: %g rounds to %g, widens to %g", i, v[i], v32[i], wide[i])
		}
	}
	if got, want := v32.L1(), wide.L1(); got != want {
		t.Errorf("L1 = %v, want the float64 accumulation %v", got, want)
	}
	v32.Scale(2).Add(v32)
	for i := range v32 {
		if want := float32(v[i]) * 4; v32[i] != want {
			t.Fatalf("entry %d after Scale+Add = %g, want %g", i, v32[i], want)
		}
	}
	if top := v32.TopK(1); top[0].Index != 2 || top[0].Score != 13 {
		t.Errorf("TopK = %+v", top)
	}
}

func TestVectorDot(t *testing.T) {
	if got := (Vector{1, 2, 3}).Dot(Vector{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestVectorL1Dist(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{0, 4, 3}
	if got := a.L1Dist(b); got != 3 {
		t.Errorf("L1Dist = %v, want 3", got)
	}
}

func TestVectorMax(t *testing.T) {
	i, v := (Vector{3, 7, 2}).Max()
	if i != 1 || v != 7 {
		t.Errorf("Max = (%d,%v), want (1,7)", i, v)
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	v := Vector{0.5, 0.9, 0.5, 0.1}
	got := v.TopK(3)
	if got[0].Index != 1 {
		t.Fatalf("top1 = %+v", got[0])
	}
	// Tie between index 0 and 2 broken by ascending index.
	if got[1].Index != 0 || got[2].Index != 2 {
		t.Fatalf("tie-break wrong: %+v", got)
	}
	if len(v.TopK(10)) != 4 {
		t.Errorf("TopK over length should clamp")
	}
	if v.TopK(0) != nil {
		t.Errorf("TopK(0) should be nil")
	}
}

func TestTopKPropertyContainsMax(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		v := Vector(xs)
		// NaNs break ordering semantics; skip them.
		for _, x := range v {
			if math.IsNaN(x) {
				return true
			}
		}
		top := v.TopK(1)
		_, max := v.Max()
		return top[0].Score == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestL1TriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(32)
		a, b, c := NewVector(n), NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		if a.L1Dist(c) > a.L1Dist(b)+b.L1Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

// TopK must agree exactly with the naive full-sort reference.
func TestTopKMatchesNaive(t *testing.T) {
	naive := func(v Vector, k int) []Entry {
		if k > len(v) {
			k = len(v)
		}
		if k <= 0 {
			return nil
		}
		es := make([]Entry, len(v))
		for i, x := range v {
			es[i] = Entry{Index: i, Score: x}
		}
		sort.Slice(es, func(a, b int) bool {
			if es[a].Score != es[b].Score {
				return es[a].Score > es[b].Score
			}
			return es[a].Index < es[b].Index
		})
		return es[:k]
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		v := NewVector(n)
		for i := range v {
			// Coarse values force plenty of ties.
			v[i] = float64(rng.Intn(8))
		}
		k := rng.Intn(n + 3)
		got := v.TopK(k)
		want := naive(v, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d: entry %d = %+v, want %+v\nv=%v", trial, k, i, got[i], want[i], v)
			}
		}
	}
}

// TopKScaledSum with an id map must rank exactly like TopK of the written
// vector a·scale + b scattered into id order, ties included, in both widths.
func TestTopKScaledSumMatchesScatteredTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		a, b := NewVector32(n), NewVector32(n)
		for i := range a {
			// Coarse values force plenty of ties.
			a[i], b[i] = float32(rng.Intn(4)), float32(rng.Intn(3))
		}
		ids := make([]int32, n)
		for i, p := range rng.Perm(n) {
			ids[i] = int32(p)
		}
		scale := 0.5 + rng.Float64()
		k := rng.Intn(n + 3)
		written := ScaledSumInto(a, b, scale, NewVector(n))
		scattered := NewVector(n)
		for i, x := range written {
			scattered[ids[i]] = x
		}
		for _, c := range []struct {
			name string
			ids  []int32
			want []Entry
		}{{"identity", nil, written.TopK(k)}, {"permuted", ids, scattered.TopK(k)}} {
			got := TopKScaledSum(a, b, scale, k, c.ids)
			if len(got) != len(c.want) {
				t.Fatalf("trial %d %s: len %d vs %d", trial, c.name, len(got), len(c.want))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("trial %d %s k=%d: entry %d = %+v, want %+v", trial, c.name, k, i, got[i], c.want[i])
				}
			}
		}
	}
}
