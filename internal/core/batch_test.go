package core

import (
	"context"
	"math"
	"testing"

	"tpa/internal/sparse"
)

func TestQueryBatchMatchesSerial(t *testing.T) {
	tp, _ := preprocessed(t, 50, DefaultParams())
	seeds := []int{0, 7, 42, 7, 199, 250}
	for _, parallelism := range []int{1, 3, 8} {
		batch, err := tp.QueryBatch(seeds, parallelism, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(seeds) {
			t.Fatalf("parallelism %d: %d results for %d seeds", parallelism, len(batch), len(seeds))
		}
		for i, seed := range seeds {
			want, err := tp.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := want.L1Dist(batch[i]); d != 0 {
				t.Errorf("parallelism %d seed %d: batch deviates from serial by %g", parallelism, seed, d)
			}
		}
	}
}

func TestQueryBatchErrors(t *testing.T) {
	tp, _ := preprocessed(t, 51, DefaultParams())
	if _, err := tp.QueryBatch([]int{1, 2, 9999}, 2, nil); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := tp.QueryBatch([]int{-1}, 2, nil); err == nil {
		t.Error("negative seed accepted")
	}
	out, err := tp.QueryBatch(nil, 4, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(out))
	}
}

// QueryBatch with an id map writes each answer in ids order: entry ids[j]
// of the result is internal node j's score, to the bit.
func TestQueryBatchScattersIntoIDs(t *testing.T) {
	tp, _ := preprocessed(t, 56, DefaultParams())
	seeds := []int{0, 9, 120, 9, 254}
	want, err := tp.QueryBatch(seeds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := tp.Walk().N()
	ids := make([]int32, n)
	for j := range ids {
		ids[j] = int32(n - 1 - j)
	}
	for _, parallelism := range []int{1, 4} {
		got, err := tp.QueryBatch(seeds, parallelism, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			for j, v := range want[i] {
				if math.Float64bits(got[i][ids[j]]) != math.Float64bits(v) {
					t.Fatalf("parallelism %d seed %d: entry %d is %v, want node %d's %v", parallelism, seeds[i], ids[j], got[i][ids[j]], j, v)
				}
			}
		}
	}
	if _, err := tp.QueryBatch(seeds, 2, ids[1:]); err == nil {
		t.Error("short id map accepted")
	}
}

func TestTopKBatchMatchesTopK(t *testing.T) {
	tp, _ := preprocessed(t, 52, DefaultParams())
	seeds := []int{3, 77, 3, 210}
	const k = 15
	batch, err := tp.TopKBatch(seeds, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		want, _, err := tp.TopKDeadline(context.Background(), []int{seed}, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Errorf("seed %d entry %d: %+v != %+v", seed, j, batch[i][j], want[j])
			}
		}
	}
}

func TestQueryIntoMatchesQuery(t *testing.T) {
	tp, _ := preprocessed(t, 53, DefaultParams())
	want, err := tp.Query(17)
	if err != nil {
		t.Fatal(err)
	}
	dst := sparse.NewVector(tp.Walk().N())
	got, err := tp.QueryInto(17, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Error("QueryInto did not return dst")
	}
	if d := want.L1Dist(got); d != 0 {
		t.Errorf("QueryInto deviates by %g", d)
	}
	if _, err := tp.QueryInto(17, sparse.NewVector(3)); err == nil {
		t.Error("short dst accepted")
	}
	if _, err := tp.QueryInto(-1, dst); err == nil {
		t.Error("bad seed accepted")
	}
}

// The query hot path must not allocate at all beyond the scratch it is
// handed. Measuring queryInto with a caller-held scratch takes the
// sync.Pool out of the picture entirely, so the count is exactly zero on
// every run — the pool is what made the old QueryInto-based check flaky:
// GC can empty it mid-run, and under the race detector Put/Get drop
// entries pseudo-randomly, both forcing occasional scratch re-allocations.
// This assertion is deterministic under both runtimes.
func TestQueryIntoAllocationFree(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		tp, _ := preprocessed(t, 54, DefaultParams())
		if err := tp.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		dst := sparse.NewVector(tp.Walk().N())
		sc := tp.getScratch()
		seeds := []int{5}
		// nil is the plain entry points' context, Background the deadline
		// ones': the one loop must stay allocation-free under both.
		for _, ctx := range []context.Context{nil, context.Background()} {
			allocs := testing.AllocsPerRun(200, func() {
				tp.queryInto(ctx, seeds, dst, sc)
			})
			if allocs != 0 {
				t.Errorf("%v ctx=%v: queryInto allocates %.2f objects/op, want exactly 0", prec, ctx, allocs)
			}
		}
		tp.putScratch(sc)
		// The pooled public wrapper must produce the same answer (its own
		// allocation behavior is the pool's business, not asserted here).
		want, err := tp.QueryInto(5, sparse.NewVector(tp.Walk().N()))
		if err != nil {
			t.Fatal(err)
		}
		if d := want.L1Dist(dst); d != 0 {
			t.Errorf("%v: scratch-held queryInto deviates from QueryInto by %g", prec, d)
		}
	}
}

func TestPreprocessParallelMatchesSerial(t *testing.T) {
	w := testWalk(t, 55)
	serial, err := Preprocess(w, cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := PreprocessParallel(w, cfg(), DefaultParams(), workers)
		if err != nil {
			t.Fatal(err)
		}
		// Sharded gather order differs from the serial scatter order only in
		// floating-point rounding.
		if d := serial.StrangerVector().L1Dist(par.StrangerVector()); d > 1e-10 {
			t.Errorf("workers %d: stranger vector deviates by %g", workers, d)
		}
		a, err := serial.Query(12)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Query(12)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.L1Dist(b); d > 1e-10 {
			t.Errorf("workers %d: query deviates by %g", workers, d)
		}
	}
}
