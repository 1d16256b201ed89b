package tpa_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"tpa"
)

// Deadline-partial answers carry the same kind of guarantee as full ones:
// stopping the online phase after S' < S propagation steps yields a valid
// TPA with split point S', so ‖r_exact − r_partial‖₁ ≤ 2(1-c)^S' — the
// reported residual_bound. This suite checks that contract through the
// public API on random graphs: whatever budget a query is given, the answer
// it returns must honor the bound it claims.

// checkPartialAccuracy asserts the deadline-answer contract for one query:
// the reported bound is honored against exact RWR, mass is conserved, and
// the meta is internally consistent.
func checkPartialAccuracy(t *testing.T, tag string, got []float64, meta tpa.QueryMeta, exact []float64, o tpa.Options) {
	t.Helper()
	fullBound := 2 * math.Pow(1-o.C, float64(o.S))
	if meta.Partial {
		if meta.EffectiveS < 1 || meta.EffectiveS >= o.S {
			t.Errorf("%s: partial with effective_s %d outside [1, %d)", tag, meta.EffectiveS, o.S)
		}
		if meta.Bound <= fullBound {
			t.Errorf("%s: partial bound %g not looser than full bound %g", tag, meta.Bound, fullBound)
		}
	} else if meta.EffectiveS != o.S {
		t.Errorf("%s: complete answer reports effective_s %d, want %d", tag, meta.EffectiveS, o.S)
	}
	if want := 2 * math.Pow(1-o.C, float64(meta.EffectiveS)); math.Abs(meta.Bound-want) > 1e-12 {
		t.Errorf("%s: bound %g inconsistent with effective_s %d (want %g)", tag, meta.Bound, meta.EffectiveS, want)
	}

	if dist := l1dist(got, exact); dist > meta.Bound {
		t.Errorf("%s: L1 error %g exceeds reported bound %g (effective_s %d)", tag, dist, meta.Bound, meta.EffectiveS)
	}
	var mass float64
	for _, v := range got {
		mass += v
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("%s: mass %g, want ≈1", tag, mass)
	}
}

func TestDeadlineAccuracyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		nodes := 200 + rng.Intn(400)
		g := tpa.RandomSBMGraph(nodes, 2+rng.Intn(4), 4+rng.Float64()*4, 0.8, rng.Int63())
		o := tpa.Defaults()
		eng, err := tpa.New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int{rng.Intn(nodes), rng.Intn(nodes)} {
			exact, err := tpa.Exact(g, seed, o)
			if err != nil {
				t.Fatal(err)
			}

			// Unbounded context: identical to the plain query, not partial.
			got, meta, err := eng.QueryDeadline(context.Background(), []int{seed})
			if err != nil {
				t.Fatal(err)
			}
			if meta.Partial {
				t.Errorf("unbounded query flagged partial (effective_s %d)", meta.EffectiveS)
			}
			plain, err := eng.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := l1dist(got, plain); d != 0 {
				t.Errorf("unbounded deadline query differs from Query by %g", d)
			}
			checkPartialAccuracy(t, "unbounded", got, meta, exact, o)

			// Already-expired context: the worst case — the engine still
			// returns the S'=1 head (scaled seed restart + stranger part),
			// honest about its loose bound.
			expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
			got, meta, err = eng.QueryDeadline(expired, []int{seed})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !meta.Partial || meta.EffectiveS != 1 {
				t.Errorf("expired ctx: partial %v effective_s %d, want true/1", meta.Partial, meta.EffectiveS)
			}
			checkPartialAccuracy(t, "expired", got, meta, exact, o)

			// A budget so small the query may or may not finish: whichever
			// way the race goes, the answer must honor the bound it reports.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Microsecond)
			got, meta, err = eng.QueryDeadline(ctx, []int{seed})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			checkPartialAccuracy(t, "tight", got, meta, exact, o)
		}
	}
}

// TestDeadlineTopKMatchesQuery pins TopKDeadline to the head of the score
// vector QueryDeadline serves under the same (expired) budget, so the two
// public entry points cannot drift apart on the partial path.
func TestDeadlineTopKMatchesQuery(t *testing.T) {
	g := tpa.RandomCommunityGraph(300, 2400, 4, 17)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()

	scores, qMeta, err := eng.QueryDeadline(expired, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	top, kMeta, err := eng.TopKDeadline(expired, []int{7}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if qMeta != kMeta {
		t.Errorf("meta drift: query %+v vs topk %+v", qMeta, kMeta)
	}
	want := tpa.TopKOf(scores, 10)
	if len(top) != len(want) {
		t.Fatalf("TopKDeadline returned %d entries, want %d", len(top), len(want))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("TopKDeadline[%d] = %+v, want %+v", i, top[i], want[i])
		}
	}
}

// TestDeadlineMatchesPlainAcrossVariants pins precision × deadline: with a
// budget that never expires, the deadline entry points must return exactly
// what the plain ones do on the same engine, whatever its layout, serving
// precision and storage — both run the one online phase on the same
// kernels.
func TestDeadlineMatchesPlainAcrossVariants(t *testing.T) {
	g := tpa.RandomSBMGraph(400, 4, 6, 0.85, 31)
	for _, v := range accuracyVariants {
		t.Run(v.name, func(t *testing.T) {
			o := v.options()
			eng := v.build(t, g)
			for _, seed := range []int{3, 141, 399} {
				plain, err := eng.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				got, meta, err := eng.QueryDeadline(context.Background(), []int{seed})
				if err != nil {
					t.Fatal(err)
				}
				if meta.Partial || meta.EffectiveS != o.S {
					t.Errorf("seed %d: unbounded query reports %+v", seed, meta)
				}
				diff := 0
				for i := range plain {
					if got[i] != plain[i] {
						diff++
					}
				}
				if diff > 0 {
					t.Errorf("seed %d: QueryDeadline differs from Query on %d of %d nodes", seed, diff, len(plain))
				}
				top, err := eng.TopK(seed, 10)
				if err != nil {
					t.Fatal(err)
				}
				topD, _, err := eng.TopKDeadline(context.Background(), []int{seed}, 10)
				if err != nil {
					t.Fatal(err)
				}
				for i := range top {
					if topD[i] != top[i] {
						t.Errorf("seed %d: TopKDeadline[%d] = %+v, TopK = %+v", seed, i, topD[i], top[i])
					}
				}
			}
		})
	}
}
