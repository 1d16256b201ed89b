package rwr

import (
	"math/rand"
	"testing"

	"tpa/internal/graph"
	"tpa/internal/sparse"
)

func shardTestWalk(t *testing.T, seed int64) *graph.Walk {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < 900; i++ {
		b.AddEdge(rng.Intn(150), rng.Intn(150))
	}
	return graph.NewWalk(b.Build(), graph.DanglingSelfLoop)
}

func TestShardedMatchesSerial(t *testing.T) {
	w := shardTestWalk(t, 61)
	rng := rand.New(rand.NewSource(62))
	for _, workers := range []int{2, 3, 8} {
		op := Sharded(w, workers)
		if op == Operator(w) {
			t.Fatalf("workers %d: Sharded did not wrap a BlockOperator", workers)
		}
		x := sparse.NewVector(w.N())
		for i := range x {
			x[i] = rng.Float64()
		}
		want := w.MulT(x, sparse.NewVector(w.N()))
		got := op.MulT(x, sparse.NewVector(w.N()))
		if d := want.L1Dist(got); d > 1e-12 {
			t.Errorf("workers %d: sharded MulT deviates by %g", workers, d)
		}
	}
}

// plainOp is an Operator with no block support.
type plainOp struct{ n int }

func (p plainOp) N() int                                { return p.n }
func (p plainOp) MulT(x, y sparse.Vector) sparse.Vector { copy(y, x); return y }

func TestShardedFallsBack(t *testing.T) {
	op := plainOp{n: 10}
	if got := Sharded(op, 4); got != Operator(op) {
		t.Error("non-block operator was wrapped")
	}
	w := shardTestWalk(t, 63)
	if got := Sharded(w, 1); got != Operator(w) {
		t.Error("workers=1 should return the operator unchanged")
	}
}
