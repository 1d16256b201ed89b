package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"tpa/internal/sparse"
)

// TestMulTSameBitsAnyBlocks pins the numerical crux of the row blocks: on a
// dense input MulT pulls, and the pull is bit-identical for any block
// bounds, because each destination row is gathered independently in
// ascending in-neighbor order. It agrees with the serial push kernel to
// float-summation order (the pull adds a dangling row's self-loop term
// last, the push in the row's id order).
func TestMulTSameBitsAnyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	b := NewBuilderN(150)
	for i := 0; i < 900; i++ {
		b.AddEdge(rng.Intn(140), rng.Intn(150)) // the last 10 nodes dangle
	}
	g := b.Build()
	n := g.NumNodes()
	x := sparse.NewVector(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	serial := NewWalk(g, DanglingSelfLoop)
	push := sparse.NewVector(n)
	pushUnder(serial, serial.invdeg, x, push, math.MaxInt64)
	var want sparse.Vector
	for _, bounds := range [][]int{
		{0, n},
		{0, n / 2, n},
		{0, 1, 1, 17, n - 1, n}, // empty and tiny blocks
		blockBounds(g, 3),
		blockBounds(g, 8),
	} {
		w, err := serial.WithBlocks(bounds)
		if err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
		got := w.MulT(x, sparse.NewVector(n))
		if _, pulls := w.MatvecCounts(); pulls != 1 {
			t.Fatalf("bounds %v: a dense x was not pulled", bounds)
		}
		if want == nil {
			want = got
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bounds %v: row %d differs: %g vs %g", bounds, i, got[i], want[i])
			}
		}
		if d := push.L1Dist(got); d > 1e-12 {
			t.Fatalf("bounds %v: the pull is %g from the serial push in L1", bounds, d)
		}
	}
}

// TestWalkConcurrentApplications is the batch worker pool's use of one
// Walk: several goroutines apply it at once, each to its own vectors, some
// inputs pushed and some pulled. Every result must equal the serial one bit
// for bit and the kernel counters must account for every application (run
// under -race in CI).
func TestWalkConcurrentApplications(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 300, 1800)
	n := g.NumNodes()
	w, err := NewWalk(g, DanglingSelfLoop).WithBlocks([]int{0, n / 3, n})
	if err != nil {
		t.Fatal(err)
	}
	sparseX, denseX := sparse.NewVector(n), sparse.NewVector(n)
	sparseX[5] = 1
	denseX.Fill(1 / float64(n))
	wantSparse := w.MulT(sparseX, sparse.NewVector(n))
	wantDense := w.MulT(denseX, sparse.NewVector(n))
	if push, pull := w.MatvecCounts(); push != 1 || pull != 1 {
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
					w.MulT(c.x, y)
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
	if push, pull := w.MatvecCounts(); push != 1+workers*rounds || pull != 1+workers*rounds {
		t.Fatalf("counters read %d pushed, %d pulled; want %d each", push, pull, 1+workers*rounds)
	}
}

func TestWithBlocksRejectsBadBounds(t *testing.T) {
	w := NewWalk(randomGraph(rand.New(rand.NewSource(2)), 20, 60), DanglingSelfLoop)
	for _, bounds := range [][]int{
		nil,
		{0},
		{1, 20},         // does not start at 0
		{0, 10},         // does not end at n
		{0, 15, 10, 20}, // not ascending
		{0, -1, 20},     // negative
	} {
		if _, err := w.WithBlocks(bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
}

// kernelSet is the Ãᵀ kernel family in one float width: the walk's
// normalization in that width and its public application, the switch.
type kernelSet[T sparse.Float] struct {
	invdeg func(*Walk) []T
	mulT   func(*Walk, sparse.Vec[T], sparse.Vec[T]) sparse.Vec[T]
}

// push is the unbudgeted push kernel.
func (k kernelSet[T]) push(w *Walk, x, y sparse.Vec[T]) sparse.Vec[T] {
	pushUnder(w, k.invdeg(w), x, y, math.MaxInt64)
	return y
}

// TestKernelsMatchDenseReference checks every kernel, in both widths,
// against y = M·x with M the explicitly materialized n×n column-normalized
// matrix: {float32, float64} × {push, pull in 3 uneven blocks, MulT over 4
// row blocks} × {a dense x, a one-hot x and its next two iterates, a sparse
// x whose push runs past the point where the kernel measures the rest of x,
// and a pair of inputs one row apart that straddle the kernel switch}, so
// both branches of MulT/MulT32 meet the reference.
func TestKernelsMatchDenseReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		testKernels(t, 1e-12, kernelSet[float64]{func(w *Walk) []float64 { return w.invdeg }, (*Walk).MulT})
	})
	t.Run("float32", func(t *testing.T) {
		testKernels(t, 1e-5, kernelSet[float32]{func(w *Walk) []float32 { return w.invdeg32 }, (*Walk).MulT32})
	})
}

func testKernels[T sparse.Float](t *testing.T, tol float64, k kernelSet[T]) {
	rng := rand.New(rand.NewSource(21))
	// Sources stop short of n, so the last nodes are dangling; the second
	// graph is a single isolated node.
	b := NewBuilderN(120)
	for i := 0; i < 700; i++ {
		b.AddEdge(rng.Intn(110), rng.Intn(120))
	}
	graphs := []*Graph{b.Build(), FromEdges(1, nil)}
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
	for _, g := range graphs {
		n := g.NumNodes()
		w, err := NewWalk(g, DanglingSelfLoop).WithBlocks([]int{0, n / 3, n / 3, 2 * n / 3, n})
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
		// lookahead holds every third row while their out-edges stay
		// under half the budget: past the share of it the push kernel
		// spends before it measures the rest of x (budget/16), so the
		// push stops, looks ahead and finishes.
		lookahead := make(sparse.Vec[T], n)
		volume = 0
		for u := 0; u < n; u += 3 {
			if volume += int64(g.OutDegree(u)); volume >= budget/2 {
				break
			}
			lookahead[u] = T(rng.NormFloat64())
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
			{"past the look-ahead", lookahead, wantPush},
			{"under the switch", under, wantPush},
			{"over the switch", over, wantPull},
		} {
			want := denseMulT(g, in.x)
			check := func(kernel string, got sparse.Vec[T]) {
				t.Helper()
				for i := range want {
					if d := math.Abs(float64(got[i]) - want[i]); d > tol {
						t.Fatalf("n=%d %s x, %s: row %d off by %g", n, in.name, kernel, i, d)
					}
				}
			}
			check("push", k.push(w, in.x, make(sparse.Vec[T], n)))

			pull := make(sparse.Vec[T], n)
			for _, cut := range [][2]int{{0, n / 7}, {n / 7, n / 2}, {n / 2, n}} {
				mulTBlock(w, k.invdeg(w), in.x, pull, cut[0], cut[1])
			}
			check("pull", pull)

			pushes, pulls := w.MatvecCounts()
			got := k.mulT(w, in.x, make(sparse.Vec[T], n))
			check("MulT", got)
			pushes2, pulls2 := w.MatvecCounts()
			if pushes2+pulls2 != pushes+pulls+1 {
				t.Fatalf("n=%d %s x: one application moved the counters by %d", n, in.name, pushes2+pulls2-pushes-pulls)
			}
			pulled := pulls2 > pulls
			if in.kernel != anyKernel && pulled != (in.kernel == wantPull) {
				t.Fatalf("n=%d %s x: MulT pulled=%v", n, in.name, pulled)
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
					t.Fatalf("n=%d %s x: fan-out row %d differs from the serial pull: %g vs %g", n, in.name, i, got[i], pull[i])
				}
			}
		}
	}
}

// denseMulT is the naive reference: it materializes the dense n×n matrix
// Ãᵀ, a dangling node's column holding its self-loop, and multiplies it by
// x in float64.
func denseMulT[T sparse.Float](g *Graph, x sparse.Vec[T]) []float64 {
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
			m[u][u] = 1
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
