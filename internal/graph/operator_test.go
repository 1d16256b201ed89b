package graph

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/sparse"
)

// TestPushUnder pins the budgeted push kernel against the unbudgeted one,
// in both widths: pushUnder reports false exactly when the out-edges of x's
// non-zero rows reach the budget, and when it reports true, y is the
// unbudgeted push's answer bit for bit. The inputs are placed around the
// kernel's two thresholds — budget/inlineDiv, where it stops pushing to
// measure the rest of x, and the budget itself.
func TestPushUnder(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		testPushUnder(t, func(w *Walk) []float64 { return w.invdeg })
	})
	t.Run("float32", func(t *testing.T) {
		testPushUnder(t, func(w *Walk) []float32 { return w.invdeg32 })
	})
}

func testPushUnder[T sparse.Float](t *testing.T, invdeg func(*Walk) []T) {
	// Every tenth node dangles, so dangling rows sit on both sides of
	// wherever the kernel stops to look ahead.
	rng := rand.New(rand.NewSource(8))
	const n = 500
	b := NewBuilderN(n)
	for i := 0; i < 4000; i++ {
		if u := rng.Intn(n); u%10 != 3 {
			b.AddEdge(u, rng.Intn(n))
		}
	}
	g := b.Build()
	m := g.NumEdges()
	budget := m / 4
	volume := func(x sparse.Vec[T]) int64 {
		var v int64
		for u, xu := range x {
			if xu != 0 {
				v += int64(g.OutDegree(u))
			}
		}
		return v
	}
	// fill sets rows in ascending id order, every step-th one, while their
	// out-volume stays under limit.
	fill := func(step int, limit int64) sparse.Vec[T] {
		x := make(sparse.Vec[T], n)
		var v int64
		for u := 0; u < n; u += step {
			if v += int64(g.OutDegree(u)); v >= limit {
				break
			}
			x[u] = T(rng.Float64())
		}
		return x
	}

	oneHot := make(sparse.Vec[T], n)
	oneHot[7] = 1
	danglingHot := make(sparse.Vec[T], n)
	danglingHot[13] = 1
	underInline := fill(1, budget/inlineDiv)
	crossing := fill(3, budget/2)
	crossing[n-7] = 1 // a dangling row after the cut
	if v := volume(crossing); v < budget/inlineDiv || v >= budget || g.OutDegree(n-7) != 0 {
		t.Fatalf("crossing input: volume %d outside [%d, %d)", v, budget/inlineDiv, budget)
	}
	atBudget := fill(2, budget)
	dense := make(sparse.Vec[T], n)
	for u := range dense {
		if rng.Intn(4) > 0 {
			dense[u] = T(rng.NormFloat64())
		}
	}

	w := NewWalk(g, DanglingSelfLoop)
	for _, c := range []struct {
		name   string
		x      sparse.Vec[T]
		budget int64
	}{
		{"one-hot", oneHot, budget},
		{"dangling one-hot, budget 0", danglingHot, 0},
		{"under budget/inlineDiv", underInline, budget},
		{"crossing budget/inlineDiv", crossing, budget},
		{"one edge under the budget", atBudget, volume(atBudget) + 1},
		{"at the budget", atBudget, volume(atBudget)},
		{"dense", dense, budget},
		{"dense, budget m+1", dense, m + 1},
	} {
		want := make(sparse.Vec[T], n)
		pushUnder(w, invdeg(w), c.x, want, math.MaxInt64)
		y := make(sparse.Vec[T], n)
		for i := range y {
			y[i] = 42 // pushUnder must zero y itself
		}
		pushed := pushUnder(w, invdeg(w), c.x, y, c.budget)
		if wantPush := volume(c.x) < c.budget; pushed != wantPush {
			t.Fatalf("%s: volume %d, budget %d: pushUnder reported %v",
				c.name, volume(c.x), c.budget, pushed)
		}
		if !pushed {
			continue
		}
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("%s: row %d is %g, the unbudgeted push gives %g", c.name, i, y[i], want[i])
			}
		}
	}
}
