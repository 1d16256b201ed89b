package core

import (
	"context"
	"math"
	"testing"
	"time"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// slowOp decorates an operator with a fixed sleep per propagation step, so
// tests can pin a query mid-computation deterministically.
type slowOp struct {
	rwr.Operator
	delay time.Duration
}

func (s *slowOp) MulT(x, y sparse.Vector) sparse.Vector {
	time.Sleep(s.delay)
	return s.Operator.MulT(x, y)
}

// slowTPA preprocesses on the fast walk and rebinds the index to a
// sleep-decorated operator: preprocessing stays cheap, queries become
// interruptible at a known per-step cost.
func slowTPA(t *testing.T, p Params, delay time.Duration) (*TPA, rwr.Operator) {
	t.Helper()
	w := testWalk(t, 77)
	tp, err := Preprocess(w, cfg(), p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := tp.WithOperator(&slowOp{Operator: w, delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	return slow, w
}

// checkPartial asserts the anytime contract for one deadline-aware answer:
// the reported bound is the Theorem-2 bound for the realized split point,
// the answer carries (ε-truncated) unit mass, and its L1 distance from
// exact RWR respects the reported bound.
func checkPartial(t *testing.T, tag string, got sparse.Vector, meta QueryMeta, exact sparse.Vector, c float64) {
	t.Helper()
	if want := TheoremTwoBound(c, meta.EffectiveS); meta.Bound != want {
		t.Errorf("%s: Bound = %g, want 2(1-c)^%d = %g", tag, meta.Bound, meta.EffectiveS, want)
	}
	if meta.Steps != meta.EffectiveS-1 {
		t.Errorf("%s: Steps = %d, want EffectiveS-1 = %d", tag, meta.Steps, meta.EffectiveS-1)
	}
	var mass float64
	for _, v := range got {
		mass += v
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("%s: answer mass %g, want ≈1", tag, mass)
	}
	if d := exact.L1Dist(got); d > meta.Bound {
		t.Errorf("%s: L1 error %g exceeds reported bound %g (S'=%d)", tag, d, meta.Bound, meta.EffectiveS)
	}
}

func TestQueryDeadlineExpiredMidQuery(t *testing.T) {
	p := Params{S: 6, T: 12}
	const delay = 20 * time.Millisecond
	tp, fast := slowTPA(t, p, delay)
	const seed = 42
	exact, err := ExactRWR(fast, seed, cfg())
	if err != nil {
		t.Fatal(err)
	}

	// Budget for roughly two of the five propagation steps.
	ctx, cancel := context.WithTimeout(context.Background(), 2*delay+delay/2)
	defer cancel()
	got, meta, err := tp.QueryDeadline(ctx, []int{seed})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Partial {
		t.Fatalf("query with a %v budget over %v/step completed fully (S'=%d)", 2*delay+delay/2, delay, meta.EffectiveS)
	}
	if meta.EffectiveS <= 1 || meta.EffectiveS >= p.S {
		t.Errorf("EffectiveS = %d, want interior of (1,%d)", meta.EffectiveS, p.S)
	}
	checkPartial(t, "mid-query", got, meta, exact, cfg().C)

	// A partial answer must be strictly looser-bounded than the full one,
	// and the full one must still be within its tighter bound.
	full, fullMeta, err := tp.QueryDeadline(context.Background(), []int{seed})
	if err != nil {
		t.Fatal(err)
	}
	if fullMeta.Partial || fullMeta.EffectiveS != p.S {
		t.Errorf("unbounded query: meta %+v, want complete with S=%d", fullMeta, p.S)
	}
	if meta.Bound <= fullMeta.Bound {
		t.Errorf("partial bound %g not looser than full bound %g", meta.Bound, fullMeta.Bound)
	}
	checkPartial(t, "full", full, fullMeta, exact, cfg().C)
}

func TestQueryDeadlineAlreadyExpired(t *testing.T) {
	tp, fast := slowTPA(t, Params{S: 6, T: 12}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the first propagation step
	const seed = 7
	got, meta, err := tp.QueryDeadline(ctx, []int{seed})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Partial || meta.EffectiveS != 1 || meta.Steps != 0 {
		t.Fatalf("expired ctx: meta %+v, want Partial S'=1 with 0 steps", meta)
	}
	exact, err := ExactRWR(fast, seed, cfg())
	if err != nil {
		t.Fatal(err)
	}
	checkPartial(t, "pre-expired", got, meta, exact, cfg().C)
}

// A background context must reproduce the plain query path bit for bit —
// the deadline machinery may not perturb complete answers.
func TestQueryDeadlineMatchesQueryWhenUnbounded(t *testing.T) {
	tp, _ := preprocessed(t, 77, DefaultParams())
	for _, seed := range []int{0, 42, 299} {
		plain, err := tp.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := tp.QueryDeadline(context.Background(), []int{seed})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Partial {
			t.Fatalf("seed %d: unbounded query flagged partial", seed)
		}
		for i := range plain {
			if plain[i] != got[i] {
				t.Fatalf("seed %d: QueryDeadline[%d] = %g, Query = %g", seed, i, got[i], plain[i])
			}
		}
	}
}

func TestTopKBatchDeadline(t *testing.T) {
	tp, _ := preprocessed(t, 78, DefaultParams())
	seeds := []int{1, 5, 9, 120, 250}
	const k = 8

	// Unbounded: identical to TopKBatch.
	want, err := tp.TopKBatch(seeds, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, metas, err := tp.TopKBatchDeadline(context.Background(), seeds, k, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if metas[i].Partial {
			t.Errorf("seed %d: unbounded batch entry flagged partial", seeds[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: %d entries, want %d", seeds[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("seed %d entry %d: %+v, want %+v", seeds[i], j, got[i][j], want[i][j])
			}
		}
	}

	// Expired: every seed degrades to the S'=1 answer instead of failing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, metas, err = tp.TopKBatchDeadline(ctx, seeds, k, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if !metas[i].Partial || metas[i].EffectiveS != 1 {
			t.Errorf("seed %d: meta %+v, want Partial S'=1", seeds[i], metas[i])
		}
		if len(got[i]) != k {
			t.Errorf("seed %d: partial answer has %d entries, want %d", seeds[i], len(got[i]), k)
		}
	}

	// Bad seeds still fail the whole batch up front.
	if _, _, err := tp.TopKBatchDeadline(context.Background(), []int{-1}, k, 1, nil); err == nil {
		t.Error("negative seed accepted")
	}
}
