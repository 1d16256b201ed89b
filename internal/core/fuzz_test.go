package core

import (
	"errors"
	"testing"

	"tpa/internal/graph"
	"tpa/internal/mmapio"
)

// seedCorruptions registers blob, each forged variant (valid checksums
// over a meta the readers must refuse), and the corruption shapes the unit
// tests probe by hand: truncations inside the header, the section table, the
// first section page and the tail, and bit flips in the header and in
// payload pages. 14 seeds per call, plus one per forged variant.
func seedCorruptions(f *testing.F, blob []byte, forged ...[]byte) {
	f.Helper()
	f.Add(blob)
	for _, b := range forged {
		f.Add(b)
	}
	for _, cut := range []int{0, 2, 4, 16, 40, mmapio.PageSize + 8, len(blob) / 2, len(blob) - mmapio.PageSize} {
		f.Add(append([]byte(nil), blob[:cut]...))
	}
	for _, off := range []int{0, 8, 30, mmapio.PageSize + 17, len(blob) - mmapio.PageSize + 1} {
		flip := append([]byte(nil), blob...)
		flip[off] ^= 0x01
		f.Add(flip)
	}
}

// fuzzFixture preprocesses one TPA over a fixed walk, once in float64 and
// once in float32.
func fuzzFixture(f *testing.F) (*TPA, *TPA, *graph.Walk) {
	f.Helper()
	w := testWalk(f, 80)
	tp, err := Preprocess(w, cfg(), DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	tp32, err := Preprocess(w, cfg(), DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	if err := tp32.SetPrecision(Float32); err != nil {
		f.Fatal(err)
	}
	return tp, tp32, w
}

// FuzzReadIndex drives arbitrary bytes through the TPAM container decoder
// and ReadIndex bound to a fixed graph: every decode must either produce a
// usable index for that graph or fail with a typed ErrBadSnapshot — no
// panics, no partial state, and no allocation driven by an unvalidated
// length field (the node count is cross-checked against the graph before
// any vector is bound).
func FuzzReadIndex(f *testing.F) {
	tp, tp32, w := fuzzFixture(f)
	seedCorruptions(f, snapshotBytes(f, tp, w, nil, nil),
		forgedBytes(f, tp, w, func(md *meta) { md.params.S = 0 }))
	// The float32 fixture adds the stranger32 section.
	seedCorruptions(f, snapshotBytes(f, tp32, w, nil, nil),
		forgedBytes(f, tp32, w, func(md *meta) { md.n = 1 << 40 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := readIndexBytes(data, w)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error does not wrap ErrBadSnapshot: %v", err)
			}
			if tp != nil {
				t.Fatal("partial TPA returned alongside error")
			}
			return
		}
		if len(tp.StrangerVector()) != w.N() {
			t.Fatalf("accepted index has %d-node vector for a %d-node graph",
				len(tp.StrangerVector()), w.N())
		}
		if err := tp.Params().Validate(); err != nil {
			t.Fatalf("accepted index has invalid params: %v", err)
		}
	})
}

// FuzzReadSnapshot drives arbitrary bytes through the TPAM container
// decoder, ReadSnapshot and ReadIndex over the decoded walk — meta, graph
// sections, the optional permutation and shard sections, and the index
// sections. An accepted container must carry a valid graph, an index sized
// to it and a valid permutation, and must answer a query.
func FuzzReadSnapshot(f *testing.F) {
	tp, tp32, w := fuzzFixture(f)
	seedCorruptions(f, snapshotBytes(f, tp, w, nil, nil),
		forgedBytes(f, tp, w, func(md *meta) { md.policy = 99 }),
		forgedBytes(f, tp, w, func(md *meta) { md.policy = 1 }),
		forgedBytes(f, tp, w, func(md *meta) { md.policy = 2 }))
	// A reordered, sharded float32 fixture exercises every optional section
	// at once: perm, shards and stranger32.
	perm := make([]int32, w.N())
	for i := range perm {
		perm[i] = int32(len(perm) - 1 - i)
	}
	seedCorruptions(f, snapshotBytes(f, tp32, w, perm, []int{0, w.N() / 2, w.N()}),
		forgedBytes(f, tp32, w, func(md *meta) { md.m = 1 << 60 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, tp, err := readSnapshotBytes(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error does not wrap ErrBadSnapshot: %v", err)
			}
			if snap != nil || tp != nil {
				t.Fatal("partial state returned alongside error")
			}
			return
		}
		if err := snap.Walk.Graph().Validate(); err != nil {
			t.Fatalf("accepted snapshot carries an invalid graph: %v", err)
		}
		if len(tp.StrangerVector()) != snap.Walk.N() {
			t.Fatal("accepted snapshot has mismatched index and graph sizes")
		}
		if snap.Perm != nil {
			if err := graph.CheckPermutation(snap.Perm, snap.Walk.N()); err != nil {
				t.Fatalf("accepted snapshot carries an invalid permutation: %v", err)
			}
		}
		if snap.Walk.N() > 0 {
			if _, err := tp.Query(0); err != nil {
				t.Fatalf("accepted snapshot cannot answer a query: %v", err)
			}
		}
	})
}
