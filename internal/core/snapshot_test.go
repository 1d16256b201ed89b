package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/sparse"
)

func mustFailBadSnapshot(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: decode succeeded on corrupt input", name)
	}
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("%s: error %v does not wrap ErrBadSnapshot", name, err)
	}
}

// TestIndexCorruption damages a serialized index every way the loader must
// survive: truncation, bad magic, a wrong-size graph, and flipped payload
// bytes caught by the checksum. Every failure must be a typed
// ErrBadSnapshot with no partial TPA state.
func TestIndexCorruption(t *testing.T) {
	tp, w := preprocessed(t, 44, DefaultParams())
	var buf bytes.Buffer
	if err := tp.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 2, 16, 39, 40, len(blob) / 2, len(blob) - 1} {
			got, err := ReadIndex(bytes.NewReader(blob[:cut]), w)
			mustFailBadSnapshot(t, "truncated index", err)
			if got != nil {
				t.Fatal("partial TPA returned alongside error")
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xFF
		_, err := ReadIndex(bytes.NewReader(bad), w)
		mustFailBadSnapshot(t, "bad magic", err)
	})
	t.Run("wrong-graph-size", func(t *testing.T) {
		other := graph.NewWalk(gen.ErdosRenyi(w.N()+3, int64(2*w.N()), 9), graph.DanglingSelfLoop)
		_, err := ReadIndex(bytes.NewReader(blob), other)
		mustFailBadSnapshot(t, "wrong graph size", err)
	})
	t.Run("flipped-payload", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-10] ^= 0x01 // inside the stranger vector
		_, err := ReadIndex(bytes.NewReader(bad), w)
		mustFailBadSnapshot(t, "flipped payload", err)
	})
	t.Run("invalid-params", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[4:], 0) // S = 0
		_, err := ReadIndex(bytes.NewReader(bad), w)
		mustFailBadSnapshot(t, "invalid params", err)
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	tp, w := preprocessed(t, 45, DefaultParams())
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, tp); err != nil {
		t.Fatal(err)
	}
	w2, tp2, perm, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if perm != nil {
		t.Fatalf("natural-order snapshot round-tripped a permutation: %v", perm)
	}
	if w2.N() != w.N() || w2.Policy() != w.Policy() {
		t.Fatalf("walk changed in round trip: n=%d policy=%v", w2.N(), w2.Policy())
	}
	if err := w2.Graph().Validate(); err != nil {
		t.Fatalf("decoded graph invalid: %v", err)
	}
	if tp2.Params() != tp.Params() {
		t.Fatalf("params changed: %+v vs %+v", tp2.Params(), tp.Params())
	}
	a, err := tp.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tp2.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.L1Dist(b) != 0 {
		t.Error("snapshot-loaded TPA answers differently")
	}
}

// TestSnapshotCorruption damages the combined container at each section:
// the outer header, the graph section, and the index section.
func TestSnapshotCorruption(t *testing.T) {
	tp, _ := preprocessed(t, 46, DefaultParams())
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, tp); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	check := func(t *testing.T, name string, data []byte) {
		t.Helper()
		gw, gt, gp, err := ReadSnapshot(bytes.NewReader(data))
		mustFailBadSnapshot(t, name, err)
		if gw != nil || gt != nil || gp != nil {
			t.Fatalf("%s: partial state returned alongside error", name)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 8, 15, 16, 60, len(blob) - 1} {
			check(t, "truncated snapshot", blob[:cut])
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xFF
		check(t, "bad magic", bad)
	})
	t.Run("bad-policy", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[8:], 99)
		check(t, "bad policy", bad)
	})
	t.Run("graph-section-flip", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[40] ^= 0x01
		check(t, "graph section", bad)
	})
	t.Run("index-section-flip", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-10] ^= 0x01
		check(t, "index section", bad)
	})
}

// fakeOperator stands in for a walk operator with no in-memory graph.
type fakeOperator struct{ n int }

func (f fakeOperator) N() int                                { return f.n }
func (f fakeOperator) MulT(x, y sparse.Vector) sparse.Vector { return y }

// TestSnapshotRejectsStreamingOperator verifies the documented restriction:
// a TPA bound to a non-in-memory operator cannot be snapshotted.
func TestSnapshotRejectsStreamingOperator(t *testing.T) {
	tp, _ := preprocessed(t, 47, DefaultParams())
	tp.walk = fakeOperator{n: tp.walk.N()}
	if err := WriteSnapshot(&bytes.Buffer{}, tp); err == nil {
		t.Error("snapshot of a non-graph operator accepted")
	}
}
