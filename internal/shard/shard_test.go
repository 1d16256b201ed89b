package shard

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// checkPlan asserts the structural contract every Plan consumer relies on:
// bounds ascending from 0 to n with exactly shards ranges, and (when
// present) a true permutation of the id space.
func checkPlan(t *testing.T, p *Plan, n int) {
	t.Helper()
	if len(p.Bounds) != p.Shards+1 {
		t.Fatalf("%d bounds for %d shards", len(p.Bounds), p.Shards)
	}
	if p.Bounds[0] != 0 || p.Bounds[p.Shards] != n {
		t.Fatalf("bounds span [%d,%d], want [0,%d]", p.Bounds[0], p.Bounds[p.Shards], n)
	}
	for i := 1; i <= p.Shards; i++ {
		if p.Bounds[i] < p.Bounds[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, p.Bounds)
		}
	}
	if p.Perm != nil {
		if len(p.Perm) != n {
			t.Fatalf("perm length %d, want %d", len(p.Perm), n)
		}
		seen := make([]bool, n)
		for _, u := range p.Perm {
			if u < 0 || int(u) >= n || seen[u] {
				t.Fatalf("perm is not a permutation (node %d)", u)
			}
			seen[u] = true
		}
	}
}

func TestPlanShardsProperties(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SBM(gen.SBMConfig{Nodes: 240, Communities: 6, AvgOutDeg: 7, PIn: 0.9, Seed: 5}),
		gen.ErdosRenyi(97, 400, 3),
		gen.ErdosRenyi(5, 8, 1), // more shards than structure
	}
	for gi, g := range graphs {
		n := g.NumNodes()
		for _, shards := range []int{1, 2, 3, 7, n, n + 50} {
			p, err := PlanShards(g, shards, 10)
			if err != nil {
				t.Fatalf("graph %d shards=%d: %v", gi, shards, err)
			}
			want := shards
			if want > n {
				want = n
			}
			if p.Shards != want {
				t.Fatalf("graph %d: asked %d shards, planned %d (want clamp to %d)", gi, shards, p.Shards, want)
			}
			checkPlan(t, p, n)
			// Balance: label propagation caps parts at ceil(n/shards) and the
			// merge is first-fit-decreasing, so no shard can exceed twice the
			// ideal share.
			ideal := (n + p.Shards - 1) / p.Shards
			for i := 0; i < p.Shards; i++ {
				if sz := p.Bounds[i+1] - p.Bounds[i]; sz > 2*ideal {
					t.Errorf("graph %d shards=%d: shard %d holds %d nodes, ideal %d", gi, shards, i, sz, ideal)
				}
			}
			// Determinism: the plan is baked into snapshots, so a repeat run
			// must reproduce it exactly.
			q, err := PlanShards(g, shards, 10)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.Bounds {
				if p.Bounds[i] != q.Bounds[i] {
					t.Fatalf("graph %d shards=%d: nondeterministic bounds", gi, shards)
				}
			}
			for i := range p.Perm {
				if p.Perm[i] != q.Perm[i] {
					t.Fatalf("graph %d shards=%d: nondeterministic perm", gi, shards)
				}
			}
		}
	}
}

func TestPlanShardsContiguous(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 7)
	p, err := PlanShards(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, p, 100)
	if p.Perm != nil {
		t.Error("rounds=0 plan should not permute")
	}
	for i := 0; i < 4; i++ {
		if sz := p.Bounds[i+1] - p.Bounds[i]; sz != 25 {
			t.Errorf("contiguous shard %d holds %d nodes, want 25", i, sz)
		}
	}
}

func TestPlanShardsErrors(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	if _, err := PlanShards(g, 0, 5); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := PlanShards(graph.NewBuilderN(0).Build(), 2, 5); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestMergePartsBalance(t *testing.T) {
	for _, tc := range []struct {
		sizes  []int
		groups int
	}{
		{[]int{30, 30, 30, 30}, 2},
		{[]int{50, 1, 1, 1, 1, 1, 45}, 3},
		{[]int{7}, 3}, // fewer parts than groups: empty groups allowed
		{[]int{5, 5, 5, 5, 5, 5, 5, 5, 5}, 4},
	} {
		group := mergeParts(tc.sizes, tc.groups)
		if len(group) != len(tc.sizes) {
			t.Fatalf("%v: %d assignments", tc.sizes, len(group))
		}
		total := make([]int, tc.groups)
		var sum, largest int
		for id, gi := range group {
			if gi < 0 || gi >= tc.groups {
				t.Fatalf("%v: part %d in group %d", tc.sizes, id, gi)
			}
			total[gi] += tc.sizes[id]
			sum += tc.sizes[id]
			if tc.sizes[id] > largest {
				largest = tc.sizes[id]
			}
		}
		// Greedy number partitioning: max group ≤ ideal + largest item.
		bound := (sum+tc.groups-1)/tc.groups + largest
		for gi, tot := range total {
			if tot > bound {
				t.Errorf("%v into %d: group %d totals %d > bound %d", tc.sizes, tc.groups, gi, tot, bound)
			}
		}
		// Determinism.
		again := mergeParts(tc.sizes, tc.groups)
		for i := range group {
			if group[i] != again[i] {
				t.Fatalf("%v: nondeterministic merge", tc.sizes)
			}
		}
	}
}

// TestOperatorMatchesWalk pins the numerical crux: on a dense input the
// scatter-gather MulT is bit-identical for any shard bounds, because each
// destination row is gathered independently in ascending in-neighbor order.
// That it also matches the base walk's push kernel bit for bit holds only
// where no dangling self-loop term reorders a row's sum (the pull kernel
// adds x[v] last, the push kernel in v's id order) — a property of this
// graph and input, not of the kernels.
func TestOperatorMatchesWalk(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{Nodes: 150, Communities: 3, AvgOutDeg: 6, PIn: 0.8, Seed: 13})
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	n := g.NumNodes()
	x := sparse.NewVector(n)
	for i := range x {
		x[i] = 1 / float64(i+2)
	}
	want := w.MulT(x, sparse.NewVector(n))

	for _, bounds := range [][]int{
		{0, n},
		{0, n / 2, n},
		{0, 1, 1, 17, n - 1, n}, // empty and tiny shards
	} {
		op, err := NewOperator(w, bounds)
		if err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
		got := op.MulT(x, sparse.NewVector(n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bounds %v: row %d differs: %g vs %g", bounds, i, got[i], want[i])
			}
		}
		// ShardStats must tile the id space and account for every edge.
		var nodes int
		var edges int64
		for _, st := range op.ShardStats() {
			nodes += st.Nodes
			edges += st.Edges
		}
		if nodes != n || edges != g.NumEdges() {
			t.Fatalf("bounds %v: stats cover %d nodes / %d edges, want %d / %d",
				bounds, nodes, edges, n, g.NumEdges())
		}
	}
}

// TestOperatorConcurrentApplications is the batch worker pool's use of one
// Operator: several goroutines apply it at once, each to its own vectors,
// some inputs pushed and some pulled. Every result must equal the serial
// one bit for bit and the kernel counters must account for every
// application (run under -race in CI).
func TestOperatorConcurrentApplications(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{Nodes: 300, Communities: 3, AvgOutDeg: 6, PIn: 0.8, Seed: 9})
	n := g.NumNodes()
	op, err := NewOperator(graph.NewWalk(g, graph.DanglingSelfLoop), []int{0, n / 3, n})
	if err != nil {
		t.Fatal(err)
	}
	sparseX, denseX := sparse.NewVector(n), sparse.NewVector(n)
	sparseX[5] = 1
	denseX.Fill(1 / float64(n))
	wantSparse := op.MulT(sparseX, sparse.NewVector(n))
	wantDense := op.MulT(denseX, sparse.NewVector(n))
	if push, pull := op.MatvecCounts(); push != 1 || pull != 1 {
		t.Fatalf("one-hot and uniform inputs counted as %d pushed, %d pulled; want 1 and 1", push, pull)
	}

	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := sparse.NewVector(n)
			for r := 0; r < rounds; r++ {
				for _, c := range []struct{ x, want sparse.Vector }{{sparseX, wantSparse}, {denseX, wantDense}} {
					op.MulT(c.x, y)
					for j := range y {
						if y[j] != c.want[j] {
							t.Errorf("concurrent application differs from the serial one at row %d", j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if push, pull := op.MatvecCounts(); push != 1+workers*rounds || pull != 1+workers*rounds {
		t.Fatalf("counters read %d pushed, %d pulled; want %d each", push, pull, 1+workers*rounds)
	}
}

// TestOperatorPushAllocationFree pins the zero-allocation contract of the
// push branch, the one a query's sparse hops take: a one-hot input must be
// answered by the push kernel (checked through MatvecCounts) without a
// single allocation, in either width.
func TestOperatorPushAllocationFree(t *testing.T) {
	g := gen.SBM(gen.SBMConfig{Nodes: 300, Communities: 3, AvgOutDeg: 6, PIn: 0.8, Seed: 9})
	n := g.NumNodes()
	op, err := NewOperator(graph.NewWalk(g, graph.DanglingSelfLoop), []int{0, n / 3, n})
	if err != nil {
		t.Fatal(err)
	}
	x, y := sparse.NewVector(n), sparse.NewVector(n)
	x32, y32 := sparse.NewVector32(n), sparse.NewVector32(n)
	x[5], x32[5] = 1, 1
	const runs = 50
	for _, c := range []struct {
		name  string
		apply func()
	}{
		{"MulT", func() { op.MulT(x, y) }},
		{"MulT32", func() { op.MulT32(x32, y32) }},
	} {
		push, pull := op.MatvecCounts()
		if allocs := testing.AllocsPerRun(runs, c.apply); allocs != 0 {
			t.Errorf("%s: push branch allocates %.2f objects/op, want exactly 0", c.name, allocs)
		}
		// AllocsPerRun makes one warm-up call before the measured runs.
		if push2, pull2 := op.MatvecCounts(); push2-push != runs+1 || pull2 != pull {
			t.Errorf("%s: one-hot input counted as %d pushed, %d pulled; want %d and 0",
				c.name, push2-push, pull2-pull, runs+1)
		}
	}
}

func TestNewOperatorRejectsBadBounds(t *testing.T) {
	g := gen.ErdosRenyi(20, 60, 2)
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	for _, bounds := range [][]int{
		nil,
		{0},
		{1, 20},         // does not start at 0
		{0, 10},         // does not end at n
		{0, 15, 10, 20}, // not ascending
		{0, -1, 20},     // negative
	} {
		if _, err := NewOperator(w, bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
}

// kernelSet is the Ãᵀ kernel family in one float width: the push kernel,
// the pull kernel with its prologue, and the scatter-gather fan-out.
type kernelSet[T sparse.Float] struct {
	push  func(*graph.Walk, sparse.Vec[T], sparse.Vec[T]) sparse.Vec[T]
	prep  func(*graph.Walk, sparse.Vec[T]) T
	block func(*graph.Walk, sparse.Vec[T], sparse.Vec[T], int, int, T)
	fan   func(*Operator, sparse.Vec[T], sparse.Vec[T]) sparse.Vec[T]
}

// TestKernelsMatchDenseReference checks every kernel, in both widths and
// under every dangling policy, against y = M·x with M the explicitly
// materialized n×n column-normalized matrix: {float32, float64} ×
// {SelfLoop, Uniform, Drop} × {push, pull in 3 uneven blocks, Operator} ×
// {a dense x, a one-hot x and its next two iterates, and a pair of inputs
// one row apart that straddle the Operator's kernel switch}, so both
// branches of Operator.MulT/MulT32 meet the reference.
func TestKernelsMatchDenseReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		testKernels(t, 1e-12, kernelSet[float64]{(*graph.Walk).MulT, (*graph.Walk).MulTPrep, (*graph.Walk).MulTBlock, (*Operator).MulT})
	})
	t.Run("float32", func(t *testing.T) {
		testKernels(t, 1e-5, kernelSet[float32]{(*graph.Walk).MulT32, (*graph.Walk).MulTPrep32, (*graph.Walk).MulTBlock32, (*Operator).MulT32})
	})
}

func testKernels[T sparse.Float](t *testing.T, tol float64, k kernelSet[T]) {
	rng := rand.New(rand.NewSource(21))
	// Sources stop short of n, so the last nodes are dangling; the second
	// graph is a single isolated node.
	b := graph.NewBuilderN(120)
	for i := 0; i < 700; i++ {
		b.AddEdge(rng.Intn(110), rng.Intn(120))
	}
	graphs := []*graph.Graph{b.Build(), graph.FromEdges(1, nil)}
	// wantPush is the branch an input must take; anyKernel leaves it open.
	const (
		anyKernel = iota
		wantPush
		wantPull
	)
	type input struct {
		name   string
		x      sparse.Vec[T]
		kernel int
	}
	for _, policy := range []graph.DanglingPolicy{graph.DanglingSelfLoop, graph.DanglingUniform, graph.DanglingDrop} {
		for _, g := range graphs {
			n := g.NumNodes()
			w := graph.NewWalk(g, policy)
			op, err := NewOperator(w, []int{0, n / 3, n / 3, 2 * n / 3, n})
			if err != nil {
				t.Fatal(err)
			}

			dense := make(sparse.Vec[T], n)
			for i := range dense {
				if rng.Intn(4) > 0 { // leave zeros for the push kernel to skip
					dense[i] = T(rng.NormFloat64())
				}
			}
			hop1 := make(sparse.Vec[T], n)
			hop1[0] = 1
			hop2 := k.push(w, hop1, make(sparse.Vec[T], n))
			hop3 := k.push(w, hop2, make(sparse.Vec[T], n))
			// under fills rows in id order while their out-edges stay below
			// the switch volume; over is under plus the row that reaches it.
			under, over := make(sparse.Vec[T], n), make(sparse.Vec[T], n)
			budget := g.NumEdges() / pushVolumeDiv
			var volume int64
			for u := 0; u < n; u++ {
				over[u] = T(rng.NormFloat64())
				if volume += int64(g.OutDegree(u)); volume >= budget {
					break
				}
				under[u] = over[u]
			}

			denseKernel := wantPull
			if g.NumEdges() == 0 {
				denseKernel = anyKernel // the lone node's entry may be a drawn zero
			}
			for _, in := range []input{
				{"dense", dense, denseKernel},
				{"one-hot", hop1, anyKernel},
				{"hop 2", hop2, anyKernel},
				{"hop 3", hop3, anyKernel},
				{"under the switch", under, wantPush},
				{"over the switch", over, wantPull},
			} {
				want := denseMulT(g, policy, in.x)
				check := func(kernel string, got sparse.Vec[T]) {
					t.Helper()
					for i := range want {
						if d := math.Abs(float64(got[i]) - want[i]); d > tol {
							t.Fatalf("policy %v n=%d %s x, %s: row %d off by %g", policy, n, in.name, kernel, i, d)
						}
					}
				}
				check("push", k.push(w, in.x, make(sparse.Vec[T], n)))

				pull := make(sparse.Vec[T], n)
				prep := k.prep(w, in.x)
				for _, cut := range [][2]int{{0, n / 7}, {n / 7, n / 2}, {n / 2, n}} {
					k.block(w, in.x, pull, cut[0], cut[1], prep)
				}
				check("pull", pull)

				pushes, pulls := op.MatvecCounts()
				got := k.fan(op, in.x, make(sparse.Vec[T], n))
				check("operator", got)
				pushes2, pulls2 := op.MatvecCounts()
				if pushes2+pulls2 != pushes+pulls+1 {
					t.Fatalf("policy %v n=%d %s x: one application moved the counters by %d", policy, n, in.name, pushes2+pulls2-pushes-pulls)
				}
				pulled := pulls2 > pulls
				if in.kernel != anyKernel && pulled != (in.kernel == wantPull) {
					t.Fatalf("policy %v n=%d %s x: operator pulled=%v", policy, n, in.name, pulled)
				}
				if !pulled {
					continue
				}
				// The fan-out only schedules the pull kernel: same bits. (A
				// pushed application sums a dangling self-loop term in id
				// order rather than last, so it is held to the reference
				// alone.)
				for i := range pull {
					if got[i] != pull[i] {
						t.Fatalf("policy %v n=%d %s x: fan-out row %d differs from the serial pull: %g vs %g", policy, n, in.name, i, got[i], pull[i])
					}
				}
			}
		}
	}
}

// denseMulT is the naive reference: it materializes the dense n×n matrix
// Ãᵀ under the dangling policy and multiplies it by x in float64.
func denseMulT[T sparse.Float](g *graph.Graph, policy graph.DanglingPolicy, x sparse.Vec[T]) []float64 {
	n := g.NumNodes()
	m := make([][]float64, n) // m[v][u]: share of x[u] that lands on v
	for v := range m {
		m[v] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		ns := g.OutNeighbors(u)
		for _, v := range ns {
			m[v][u] = 1 / float64(len(ns))
		}
		if len(ns) == 0 {
			switch policy {
			case graph.DanglingSelfLoop:
				m[u][u] = 1
			case graph.DanglingUniform:
				for v := range m {
					m[v][u] = 1 / float64(n)
				}
			}
		}
	}
	y := make([]float64, n)
	for v := range m {
		for u, a := range m[v] {
			y[v] += a * float64(x[u])
		}
	}
	return y
}
