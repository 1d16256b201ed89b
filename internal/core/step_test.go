package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// The reference for the fused CPI step: the propagation loop with its step
// in three passes (Scale, Add, L1), and the online phase seeding a dense
// vector, scaling it whole and combining densely. Everything the fused code
// computes must match it bit for bit, iteration counts included.

func refCPILoop[T sparse.Float](mulT func(x, y sparse.Vec[T]) sparse.Vec[T], cfg rwr.Config,
	startIter, termIter int, x, buf, acc sparse.Vec[T]) (last sparse.Vec[T], iters int) {
	if startIter == 0 && acc != nil {
		acc.Add(x)
	}
	limit := termIter
	if limit < 0 {
		limit = cfg.IterBound() + 8
	}
	decay := T(1 - cfg.C)
	for i := 1; i <= limit; i++ {
		mulT(x, buf)
		buf.Scale(decay)
		x, buf = buf, x
		iters = i
		if acc != nil && i >= startIter {
			acc.Add(x)
		}
		if x.L1() < cfg.Eps {
			break
		}
	}
	return x, iters
}

// refPreprocess is the stranger vector under the tail rule with every
// pass apart: after each application δ = ‖Ãᵀx − x‖₁, then Scale, Add and
// L1, then the ε test, then the tail test and the extension by x·(1-c)/c.
func refPreprocess(w rwr.Operator, cfg rwr.Config, p Params) (acc sparse.Vector, iters int, stale float64) {
	n := w.N()
	q, err := rwr.SeedVector(n, allSeeds(n))
	if err != nil {
		panic(err)
	}
	x, buf, acc := q.Scale(cfg.C), sparse.NewVector(n), sparse.NewVector(n)
	ratio := (1 - cfg.C) / cfg.C
	tau := TailBudget(cfg.C, p.S)
	for i := 1; i <= cfg.IterBound()+8; i++ {
		w.MulT(x, buf)
		var delta float64
		for j := range buf {
			delta += math.Abs(buf[j] - x[j])
		}
		buf.Scale(1 - cfg.C)
		x, buf = buf, x
		if i >= p.T {
			acc.Add(x)
		}
		if x.L1() < cfg.Eps {
			return acc, i, 0
		}
		if bound := ratio * ratio * delta; i >= p.T && bound <= tau {
			acc.Add(x.Clone().Scale(ratio))
			return acc, i, bound
		}
	}
	panic("refPreprocess: no stop")
}

func refCPI(w rwr.Operator, seeds []int, cfg rwr.Config, startIter, termIter int) (sparse.Vector, int) {
	n := w.N()
	q, err := rwr.SeedVector(n, seeds)
	if err != nil {
		panic(err)
	}
	r := sparse.NewVector(n)
	_, iters := refCPILoop(w.MulT, cfg, startIter, termIter, q.Scale(cfg.C), sparse.NewVector(n), r)
	return r, iters
}

// refQuery is the online phase of t in one float width, run for split point
// s ≤ S.
func refQuery[T sparse.Float](t *TPA, s int, mulT func(x, y sparse.Vec[T]) sparse.Vec[T], stranger sparse.Vec[T], seeds []int) sparse.Vector {
	n := t.walk.N()
	q, buf, fam := make(sparse.Vec[T], n), make(sparse.Vec[T], n), make(sparse.Vec[T], n)
	share := 1 / T(len(seeds))
	for _, seed := range seeds {
		q[seed] += share
	}
	refCPILoop(mulT, t.cfg, 0, s-1, q.Scale(T(t.cfg.C)), buf, fam)
	famMass, neighMass, _ := PartMasses(t.cfg.C, s, t.params.T)
	scale := 1 + neighMass/famMass
	dst := sparse.NewVector(n)
	for i, f := range fam {
		dst[i] = float64(f)*scale + float64(stranger[i])
	}
	return dst
}

// Which bound stopped a budgeted correction (see refRecompute).
const (
	stopNone     = "none"     // the residual fit the budget: no correction step
	stopPlain    = "plain"    // (1-c)/c·‖x(k)‖₁ fit it
	stopExtended = "extended" // (1-c)²/c²·δ fit it, and the extension was added
	stopCap      = "cap"      // neither did before IterBound()+8
)

// refRecompute is recompute's stranger vector, correction count and stale
// bound with every pass apart: the head from x(0) = (1/n)·c, the residual,
// and a correction loop that after each application measures δ, then
// scales, adds and takes the L1 norm, then tries the plain bound and the
// extended one. It also names the bound that stopped the correction.
func refRecompute(t *TPA, op rwr.Operator, budget float64) (acc sparse.Vector, iters int, stale float64, stop string) {
	cfg, params := t.cfg, t.params
	n := op.N()
	x, buf := sparse.NewVector(n), sparse.NewVector(n)
	x.Fill(1 / float64(n) * cfg.C)
	for j := 1; j < params.T; j++ {
		op.MulT(x, buf)
		x, buf = buf.Scale(1-cfg.C), x
	}
	s1, resid := t.residual(op, x, buf)
	ratio := (1 - cfg.C) / cfg.C
	if resid < cfg.C*budget/(1-cfg.C) {
		return s1, 0, ratio * resid, stopNone
	}
	x, buf = buf, sparse.NewVector(n)
	for i := range x {
		x[i] = s1[i] - t.stranger[i]
	}
	for i := 1; i <= cfg.IterBound()+8; i++ {
		op.MulT(x, buf)
		var delta float64
		for j := range buf {
			delta += math.Abs(buf[j] - x[j])
		}
		buf.Scale(1 - cfg.C)
		x, buf = buf, x
		s1.Add(x)
		l1 := x.L1()
		stale = ratio * l1
		if l1 < cfg.C*budget/(1-cfg.C) {
			return s1, i, stale, stopPlain
		}
		if bound := ratio * ratio * delta; bound <= budget {
			s1.Add(x.Clone().Scale(ratio))
			return s1, i, bound, stopExtended
		}
	}
	return s1, cfg.IterBound() + 8, stale, stopCap
}

// sameBits reports the first index where a and b differ in bits, or -1.
func sameBits[T sparse.Float](a, b sparse.Vec[T]) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

func checkBits[T sparse.Float](t *testing.T, tag string, got, want sparse.Vec[T]) {
	t.Helper()
	if i := sameBits(got, want); i >= 0 {
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", tag, len(got), len(want))
		}
		t.Fatalf("%s: entry %d is %v, the three-pass step gives %v", tag, i, got[i], want[i])
	}
}

func TestFusedStepMatchesThreePass(t *testing.T) {
	w := testWalk(t, 81)
	c := cfg()
	t.Run("CPI", func(t *testing.T) {
		for _, seeds := range [][]int{{0}, {5, 77, 5}, allSeeds(w.N())} {
			for _, win := range [][2]int{{0, -1}, {0, 4}, {3, 7}, {10, -1}} {
				tag := fmt.Sprintf("%d seeds, window %v", len(seeds), win)
				res, err := CPI(w, seeds, c, win[0], win[1])
				if err != nil {
					t.Fatal(err)
				}
				want, iters := refCPI(w, seeds, c, win[0], win[1])
				checkBits(t, tag, res.Scores, want)
				if res.Iters != iters {
					t.Errorf("%s: %d iterations, the three-pass step runs %d", tag, res.Iters, iters)
				}
			}
		}
	})
	t.Run("ExactRWR", func(t *testing.T) {
		for _, seed := range []int{0, 123} {
			got, err := ExactRWR(w, seed, c)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refCPI(w, []int{seed}, c, 0, -1)
			checkBits(t, fmt.Sprintf("seed %d", seed), got, want)
		}
	})
	t.Run("PreprocessParallel", func(t *testing.T) {
		// A build is recompute from the zero vector; it must stop where the
		// build's own loop stops, on graphs of three shapes, whatever the
		// walk's row blocks.
		rmat := gen.RMAT(13, 8<<13, 0.57, 0.19, 0.19, 85)
		dangling := 0
		for u := 0; u < rmat.NumNodes(); u++ {
			if rmat.OutDegree(u) == 0 {
				dangling++
			}
		}
		if dangling == 0 {
			t.Fatal("the R-MAT case has no dangling rows")
		}
		sbm := gen.SBM(gen.SBMConfig{Nodes: 3000, Communities: 6, AvgOutDeg: 8, PIn: 0.9, Seed: 86})
		perm := make([]int32, sbm.NumNodes())
		for i, p := range rand.New(rand.NewSource(87)).Perm(len(perm)) {
			perm[i] = int32(p)
		}
		relabeled, err := graph.Permute(sbm, perm)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			w    *graph.Walk
		}{
			{"testWalk(81)", w},
			{"rmat-2^13", graph.NewWalk(rmat, graph.DanglingSelfLoop)},
			{"relabeled sbm", graph.NewWalk(relabeled, graph.DanglingSelfLoop)},
		} {
			want, iters, stale := refPreprocess(tc.w, c, DefaultParams())
			n := tc.w.N()
			exact, _ := refCPI(tc.w, allSeeds(n), c, DefaultParams().T, -1)
			for _, blocks := range []int{1, 3} {
				tag := fmt.Sprintf("%s on %d row blocks", tc.name, blocks)
				bounds := make([]int, blocks+1)
				for i := range bounds {
					bounds[i] = i * n / blocks
				}
				op, err := tc.w.WithBlocks(bounds)
				if err != nil {
					t.Fatal(err)
				}
				tp, err := PreprocessParallel(op, c, DefaultParams(), 0)
				if err != nil {
					t.Fatal(err)
				}
				checkBits(t, tag, tp.StrangerVector(), want)
				if tp.PreprocessIters() != iters || tp.StaleBound() != stale {
					t.Errorf("%s: %d preprocessing iterations with StaleBound %g, the three-pass step runs %d with %g",
						tag, tp.PreprocessIters(), tp.StaleBound(), iters, stale)
				}
				if d := tp.StrangerVector().L1Dist(exact); d > tp.StaleBound()+truncSlack {
					t.Errorf("%s: stranger vector is %g from the ε-exact one, StaleBound %g", tag, d, tp.StaleBound())
				}
			}
		}
	})
	t.Run("QuerySet", func(t *testing.T) {
		for _, prec := range []Precision{Float64, Float32} {
			tp, err := Preprocess(w, c, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.SetPrecision(prec); err != nil {
				t.Fatal(err)
			}
			for _, seeds := range [][]int{{42}, {4, 9, 4}, {0, 0, 0}, {299, 1, 150, 1}} {
				got, _, err := answerSet(tp, context.Background(), seeds)
				if err != nil {
					t.Fatal(err)
				}
				var want sparse.Vector
				if prec == Float32 {
					want = refQuery(tp, tp.params.S, tp.walk32.MulT32, tp.stranger32, seeds)
				} else {
					want = refQuery(tp, tp.params.S, tp.walk.MulT, tp.stranger, seeds)
				}
				checkBits(t, fmt.Sprintf("%v seeds %v", prec, seeds), got, want)
			}
		}
	})
	t.Run("ReindexWrite chain", func(t *testing.T) {
		const nodes = 400
		g := gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: 4, AvgOutDeg: 6, PIn: 0.9, Seed: 82})
		cur, err := Preprocess(graph.NewWalk(g, graph.DanglingSelfLoop), c, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(83))
		var skipped int
		stops := map[string]int{}
		for i := 0; i < 24; i++ {
			// Small batches skip the head; every sixth write rewires a
			// tenth of the edges, which forces correction steps.
			batch := 3
			if i%6 == 5 {
				batch = int(g.NumEdges()) / 10
			}
			var adds, removes [][2]int
			for j := 0; j < batch; j++ {
				adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
				if u := rng.Intn(nodes); g.OutDegree(u) > 0 {
					ns := g.OutNeighbors(u)
					removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
				}
			}
			next, added, removed, err := g.WithEdges(adds, removes)
			if err != nil {
				t.Fatal(err)
			}
			w := graph.NewWalk(next, graph.DanglingSelfLoop)
			prev := cur
			var stats ReindexStats
			cur, stats, err = ReindexWrite(prev, w, DirtyRows(added, removed, g.OutDegree, next.OutDegree))
			if err != nil {
				t.Fatal(err)
			}
			g = next
			tag := fmt.Sprintf("write %d", i)
			if stats.HeadIters == 0 {
				skipped++
				s1, _ := prev.residual(w, prev.tip, sparse.NewVector(nodes))
				checkBits(t, tag+" (head skipped)", cur.StrangerVector(), s1)
				continue
			}
			want, iters, stale, stop := refRecompute(prev, w, StalenessBudget(c.C, DefaultParams().S))
			stops[stop]++
			tag += fmt.Sprintf(" (stopped by the %s bound)", stop)
			checkBits(t, tag, cur.StrangerVector(), want)
			if stats.CorrectionIters != iters || stats.StaleBound != stale {
				t.Errorf("%s: %d correction steps with StaleBound %g, the three-pass step runs %d with %g",
					tag, stats.CorrectionIters, stats.StaleBound, iters, stale)
			}
		}
		t.Logf("%d heads skipped; recomputed writes stopped by bound: %v", skipped, stops)
		if corrected := stops[stopPlain] + stops[stopExtended]; skipped == 0 || corrected == 0 {
			t.Fatalf("the chain skipped %d heads and corrected %d times; it must do both to cover the loop", skipped, corrected)
		}
	})
}

// TestPartialQueryMatchesThreePass: a query cut short before its first step
// is bit-identical to the reference run for S' = 1.
func TestPartialQueryMatchesThreePass(t *testing.T) {
	tp, _ := preprocessed(t, 84, DefaultParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, meta, err := answerSet(tp, ctx, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	if meta.EffectiveS != 1 {
		t.Fatalf("cancelled query ran to S' = %d, want 1", meta.EffectiveS)
	}
	checkBits(t, "S' = 1", got, refQuery(tp, 1, tp.walk.MulT, tp.stranger, []int{9}))
}
