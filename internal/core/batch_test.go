package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tpa/internal/sparse"
)

// eachRequest is the request answering every seed on its own over a pool
// of workers.
func eachRequest(seeds []int, k, workers int) Request {
	return Request{Seeds: seeds, K: k, Each: true, Workers: workers}
}

func TestQueryBatchMatchesSerial(t *testing.T) {
	tp, _ := preprocessed(t, 50, DefaultParams())
	seeds := []int{0, 7, 42, 7, 199, 250}
	for _, parallelism := range []int{1, 3, 8} {
		batch, err := tp.Answer(context.Background(), eachRequest(seeds, 0, parallelism), nil, nil)
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
			if d := want.L1Dist(batch[i].Scores); d != 0 {
				t.Errorf("parallelism %d seed %d: batch deviates from serial by %g", parallelism, seed, d)
			}
		}
	}
}

func TestQueryBatchErrors(t *testing.T) {
	tp, _ := preprocessed(t, 51, DefaultParams())
	ctx := context.Background()
	if _, err := tp.Answer(ctx, eachRequest([]int{1, 2, 9999}, 0, 2), nil, nil); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := tp.Answer(ctx, eachRequest([]int{-1}, 0, 2), nil, nil); err == nil {
		t.Error("negative seed accepted")
	}
	out, err := tp.Answer(ctx, eachRequest(nil, 0, 4), nil, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(out))
	}
}

// A score vector answered with an id map is written in ids order: entry
// ids[j] of the result is internal node j's score, to the bit, for a seed
// set and for each seed alike.
func TestQueryBatchScattersIntoIDs(t *testing.T) {
	tp, _ := preprocessed(t, 56, DefaultParams())
	ctx := context.Background()
	seeds := []int{0, 9, 120, 9, 254}
	want, err := tp.Answer(ctx, eachRequest(seeds, 0, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := tp.Walk().N()
	ids := make([]int32, n)
	for j := range ids {
		ids[j] = int32(n - 1 - j)
	}
	check := func(name string, got, want sparse.Vector) {
		t.Helper()
		for j, v := range want {
			if math.Float64bits(got[ids[j]]) != math.Float64bits(v) {
				t.Fatalf("%s: entry %d is %v, want node %d's %v", name, ids[j], got[ids[j]], j, v)
			}
		}
	}
	for _, parallelism := range []int{1, 4} {
		got, err := tp.Answer(ctx, eachRequest(seeds, 0, parallelism), ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			check(fmt.Sprintf("parallelism %d seed %d", parallelism, seeds[i]), got[i].Scores, want[i].Scores)
		}
	}
	one, err := tp.Answer(ctx, Request{Seeds: seeds[1:2]}, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("seed set {9}", one[0].Scores, want[1].Scores)
	if _, err := tp.Answer(ctx, eachRequest(seeds, 0, 2), ids[1:], nil); err == nil {
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
		as, err := tp.Answer(context.Background(), Request{Seeds: []int{seed}, K: k}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := as[0].Top
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
