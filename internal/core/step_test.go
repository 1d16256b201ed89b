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
		if cfg.MaxIter > 0 {
			limit = cfg.MaxIter
		}
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

// refRecompute is recompute's stranger vector and correction count with the
// reference loop.
func refRecompute(t *TPA, op rwr.Operator) (sparse.Vector, int) {
	cfg, params := t.cfg, t.params
	n := op.N()
	x, buf := sparse.NewVector(n), sparse.NewVector(n)
	x.Fill(cfg.C / float64(n))
	for j := 1; j < params.T; j++ {
		op.MulT(x, buf)
		x, buf = buf.Scale(1-cfg.C), x
	}
	s1, resid := t.residual(op, x, buf)
	budget := cfg
	budget.Eps = cfg.C * StalenessBudget(cfg.C, params.S) / (1 - cfg.C)
	if budget.MaxIter == 0 {
		budget.MaxIter = cfg.IterBound() + 8
	}
	if resid < budget.Eps {
		return s1, 0
	}
	rho := buf
	for i := range rho {
		rho[i] = s1[i] - t.stranger[i]
	}
	_, iters := refCPILoop(op.MulT, budget, 1, -1, rho, sparse.NewVector(n), s1)
	return s1, iters
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
		for _, workers := range []int{1, 3} {
			tp, err := PreprocessParallel(w, c, DefaultParams(), workers)
			if err != nil {
				t.Fatal(err)
			}
			want, iters := refCPI(rwr.Sharded(w, workers), allSeeds(w.N()), c, DefaultParams().T, -1)
			checkBits(t, fmt.Sprintf("%d workers", workers), tp.StrangerVector(), want)
			if tp.PreprocessIters() != iters {
				t.Errorf("%d workers: %d preprocessing iterations, the three-pass step runs %d", workers, tp.PreprocessIters(), iters)
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
				got, _, err := tp.QueryDeadline(context.Background(), seeds)
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
		var skipped, corrected int
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
			cur, stats, err = ReindexWrite(prev, w, 1, DirtyRows(added, removed, g.OutDegree, next.OutDegree))
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
			want, iters := refRecompute(prev, w)
			checkBits(t, tag, cur.StrangerVector(), want)
			if stats.CorrectionIters != iters {
				t.Errorf("%s: %d correction steps, the three-pass step runs %d", tag, stats.CorrectionIters, iters)
			}
			if iters > 0 {
				corrected++
			}
		}
		if skipped == 0 || corrected == 0 {
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
	got, meta, err := tp.QueryDeadline(ctx, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	if meta.EffectiveS != 1 {
		t.Fatalf("cancelled query ran to S' = %d, want 1", meta.EffectiveS)
	}
	checkBits(t, "S' = 1", got, refQuery(tp, 1, tp.walk.MulT, tp.stranger, []int{9}))
}
