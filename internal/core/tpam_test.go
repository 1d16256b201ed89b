package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/mmapio"
	"tpa/internal/rwr"
)

// encodeTPAM lays w out as a TPAM container image.
func encodeTPAM(tb testing.TB, w *mmapio.Writer) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotBytes encodes tp over walk with WriteSnapshot.
func snapshotBytes(tb testing.TB, tp *TPA, walk *graph.Walk, perm []int32, shards []int) []byte {
	tb.Helper()
	w := mmapio.NewWriter()
	if err := WriteSnapshot(w, tp, walk, perm, shards); err != nil {
		tb.Fatal(err)
	}
	return encodeTPAM(tb, w)
}

// forgedBytes encodes tp over walk with its meta rewritten by edit. Every
// checksum is valid for the forged bytes, so only the readers' own checks
// can refuse them.
func forgedBytes(tb testing.TB, tp *TPA, walk *graph.Walk, edit func(*meta)) []byte {
	tb.Helper()
	md := metaOf(tp, walk)
	edit(&md)
	w := mmapio.NewWriter()
	writeSections(w, md, walk, tp.stranger)
	return encodeTPAM(tb, w)
}

// readIndexBytes decodes data as a TPAM container and binds its index to op.
func readIndexBytes(data []byte, op rwr.Operator) (*TPA, error) {
	s, err := mmapio.Decode(data)
	if err != nil {
		return nil, err
	}
	return ReadIndex(s, op)
}

// readSnapshotBytes decodes data as a TPAM container and binds both halves,
// the index to the snapshot's own walk.
func readSnapshotBytes(data []byte) (*Snapshot, *TPA, error) {
	s, err := mmapio.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	snap, err := ReadSnapshot(s)
	if err != nil {
		return nil, nil, err
	}
	tp, err := ReadIndex(s, snap.Walk)
	if err != nil {
		return nil, nil, err
	}
	return snap, tp, nil
}

// flipSection flips one bit of the first payload byte of section id in a
// copy of blob, locating the section through the container's table (16-byte
// preamble, then 32-byte entries: u32 id, u32 kind, u64 offset, ...).
func flipSection(t *testing.T, blob []byte, id uint32) []byte {
	t.Helper()
	le := binary.LittleEndian
	for i := 0; i < int(le.Uint32(blob[8:])); i++ {
		e := blob[16+32*i:]
		if le.Uint32(e) == id {
			bad := append([]byte(nil), blob...)
			bad[le.Uint64(e[8:])] ^= 0x01
			return bad
		}
	}
	t.Fatalf("section %d not found in the snapshot", id)
	return nil
}

func mustFailBadSnapshot(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: decode succeeded on corrupt input", name)
	}
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("%s: error %v does not wrap ErrBadSnapshot", name, err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	tp, w := preprocessed(t, 31, DefaultParams())
	if err := tp.SetStaleBound(1e-5); err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{Float64, Float32} {
		if err := tp.SetPrecision(prec); err != nil {
			t.Fatal(err)
		}
		loaded, err := readIndexBytes(snapshotBytes(t, tp, w, nil, nil), w)
		if err != nil {
			t.Fatal(err)
		}
		if d := tp.StrangerVector().L1Dist(loaded.StrangerVector()); d != 0 {
			t.Errorf("%v: stranger vector changed in round trip: %g", prec, d)
		}
		if loaded.Params() != tp.Params() || loaded.Config() != tp.Config() {
			t.Errorf("%v: params/config changed: %+v %+v vs %+v %+v", prec,
				loaded.Params(), loaded.Config(), tp.Params(), tp.Config())
		}
		if loaded.Precision() != prec || loaded.PreprocessIters() != tp.PreprocessIters() ||
			loaded.StaleBound() != tp.StaleBound() {
			t.Errorf("%v: loaded precision %v, %d iterations, StaleBound %g; want %v, %d, %g", prec,
				loaded.Precision(), loaded.PreprocessIters(), loaded.StaleBound(),
				prec, tp.PreprocessIters(), tp.StaleBound())
		}
		a, err := tp.Query(5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(5)
		if err != nil {
			t.Fatal(err)
		}
		if a.L1Dist(b) != 0 {
			t.Errorf("%v: loaded index answers differently", prec)
		}
	}
}

func TestReadIndexRejectsWrongGraph(t *testing.T) {
	tp, w := preprocessed(t, 32, DefaultParams())
	other := graph.NewWalk(gen.ErdosRenyi(10, 20, 1), graph.DanglingSelfLoop)
	if _, err := readIndexBytes(snapshotBytes(t, tp, w, nil, nil), other); err == nil {
		t.Error("index bound to wrong-size graph")
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	w := testWalk(t, 33)
	if _, err := readIndexBytes([]byte("not an index"), w); err == nil {
		t.Error("garbage accepted")
	}
	// A well-formed container whose meta section is garbage.
	mw := mmapio.NewWriter()
	mw.Bytes(SecMeta, []byte("not an index"))
	if _, err := readIndexBytes(encodeTPAM(t, mw), w); err == nil {
		t.Error("garbage meta accepted")
	}
}

// TestIndexCorruption damages a serialized index every way the reader must
// survive: truncation, bad magic, a wrong-size graph, flipped payload bytes
// caught by the checksum, and invalid parameters under valid checksums.
// Every failure must be a typed ErrBadSnapshot with no partial TPA state.
func TestIndexCorruption(t *testing.T) {
	tp, w := preprocessed(t, 44, DefaultParams())
	blob := snapshotBytes(t, tp, w, nil, nil)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 2, 16, 39, 40, mmapio.PageSize + 8, len(blob) / 2, len(blob) - mmapio.PageSize} {
			got, err := readIndexBytes(blob[:cut], w)
			mustFailBadSnapshot(t, "truncated index", err)
			if got != nil {
				t.Fatal("partial TPA returned alongside error")
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xFF
		_, err := readIndexBytes(bad, w)
		mustFailBadSnapshot(t, "bad magic", err)
	})
	t.Run("wrong-graph-size", func(t *testing.T) {
		other := graph.NewWalk(gen.ErdosRenyi(w.N()+3, int64(2*w.N()), 9), graph.DanglingSelfLoop)
		_, err := readIndexBytes(blob, other)
		mustFailBadSnapshot(t, "wrong graph size", err)
	})
	t.Run("flipped-payload", func(t *testing.T) {
		_, err := readIndexBytes(flipSection(t, blob, SecStranger), w)
		mustFailBadSnapshot(t, "flipped payload", err)
	})
	t.Run("invalid-params", func(t *testing.T) {
		bad := forgedBytes(t, tp, w, func(md *meta) { md.params.S = 0 })
		_, err := readIndexBytes(bad, w)
		mustFailBadSnapshot(t, "invalid params", err)
	})
	t.Run("precision-out-of-range", func(t *testing.T) {
		// 256 narrows to Precision 0 (float64) unless the raw field is
		// checked first.
		meta := metaOf(tp, w).encode()
		binary.LittleEndian.PutUint32(meta[40:], 256)
		mw := mmapio.NewWriter()
		mw.Bytes(SecMeta, meta)
		mw.F64s(SecStranger, tp.StrangerVector())
		_, err := readIndexBytes(encodeTPAM(t, mw), w)
		mustFailBadSnapshot(t, "precision 256", err)
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	tp, w := preprocessed(t, 45, DefaultParams())
	snap, tp2, err := readSnapshotBytes(snapshotBytes(t, tp, w, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Perm != nil || snap.Shards != nil {
		t.Fatalf("natural unsharded snapshot round-tripped perm %v / shards %v", snap.Perm, snap.Shards)
	}
	w2 := snap.Walk
	if w2.N() != w.N() {
		t.Fatalf("walk changed in round trip: n=%d", w2.N())
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

	// The optional sections ride along unchanged.
	perm := make([]int32, w.N())
	for i := range perm {
		perm[i] = int32(len(perm) - 1 - i)
	}
	shards := []int{0, w.N() / 3, w.N()}
	snap, _, err = readSnapshotBytes(snapshotBytes(t, tp, w, perm, shards))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(snap.Perm, perm) || !slices.Equal(snap.Shards, shards) {
		t.Fatalf("perm/shards changed in round trip: %v / %v", snap.Perm, snap.Shards)
	}
}

// TestSnapshotCorruption damages the container at each part: the header,
// the meta section, the graph sections, and the index section.
func TestSnapshotCorruption(t *testing.T) {
	tp, w := preprocessed(t, 46, DefaultParams())
	blob := snapshotBytes(t, tp, w, nil, nil)

	check := func(t *testing.T, name string, data []byte) {
		t.Helper()
		snap, tp, err := readSnapshotBytes(data)
		mustFailBadSnapshot(t, name, err)
		if snap != nil || tp != nil {
			t.Fatalf("%s: partial state returned alongside error", name)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 8, 15, 16, 60, len(blob) - mmapio.PageSize} {
			check(t, "truncated snapshot", blob[:cut])
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xFF
		check(t, "bad magic", bad)
	})
	// Self-loop (0) is the only dangling policy; 1 and 2 are the retired
	// drop and uniform policies, which older readers accepted.
	for _, c := range []struct {
		name   string
		policy graph.DanglingPolicy
	}{{"bad-policy", 99}, {"drop-policy", 1}, {"uniform-policy", 2}} {
		t.Run(c.name, func(t *testing.T) {
			check(t, c.name, forgedBytes(t, tp, w, func(md *meta) { md.policy = c.policy }))
		})
	}
	t.Run("graph-section-flip", func(t *testing.T) {
		check(t, "graph section", flipSection(t, blob, SecOutIdx))
	})
	t.Run("index-section-flip", func(t *testing.T) {
		check(t, "index section", flipSection(t, blob, SecStranger))
	})
}
