package shard

import (
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

// TestOperatorMatchesWalk pins what the benchmark trace's NewOperator
// hands back: on a dense input the operator pulls over the shard bounds,
// and the pull is bit-identical to the base walk's for any bounds, because
// each destination row is gathered independently in ascending in-neighbor
// order.
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
		// The operator counts its own applications, from 0.
		if push, pull := op.MatvecCounts(); push != 0 || pull != 1 {
			t.Fatalf("bounds %v: dense input counted as %d pushed, %d pulled; want 0 and 1", bounds, push, pull)
		}
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
