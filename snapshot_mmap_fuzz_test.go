package tpa

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadMmapSnapshot drives arbitrary bytes through the TPAM engine
// loader — container parsing, meta decoding, section cross-checks and the
// structural graph validation behind LoadSnapshotMmap. The contract: every
// input either yields a working engine or a typed ErrBadSnapshot — never a
// panic (the mapped arrays feed unsafe reinterpretation and unchecked
// kernel indexing, so the validator is the only thing between a crafted
// file and an out-of-bounds read), and never an allocation beyond what the
// input's own size can justify.
func FuzzReadMmapSnapshot(f *testing.F) {
	seed := func(build func() (*Engine, error)) []byte {
		eng, err := build()
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(f.TempDir(), "seed.tpam")
		if err := eng.SaveSnapshotMmap(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	g := RandomSBMGraph(80, 4, 4, 0.8, 5)
	blobs := [][]byte{
		seed(func() (*Engine, error) { return New(g, Defaults()) }),
		// A snapshot built with a node ordering: perm section, no shards.
		orderedSnapshot(f, g, Float64),
		// A 2-shard float32 engine whose plan moves nodes.
		seed(func() (*Engine, error) {
			o := Defaults()
			o.Precision = Float32
			return NewSharded(shuffledGraph(f, g, 1), 2, o)
		}),
		seed(func() (*Engine, error) { return NewSharded(g, 3, Defaults()) }),
		// A written engine: the 72-byte meta carrying its StaleBound.
		seed(func() (*Engine, error) {
			eng, err := New(g, Defaults())
			if err != nil {
				return nil, err
			}
			written, _, err := eng.ApplyEdges([][2]int{{0, 79}, {3, 40}}, nil)
			return written, err
		}),
	}
	for _, blob := range blobs {
		f.Add(blob)
		// Truncations at interesting cuts: inside the preamble, the table,
		// the first page and the tail.
		for _, cut := range []int{0, 5, 40, 4096 + 9, len(blob) / 2, len(blob) - 1} {
			if cut < len(blob) {
				f.Add(append([]byte(nil), blob[:cut]...))
			}
		}
		// Bit flips in the header and in a payload page.
		for _, at := range []int{9, 30, 4096 + 17, len(blob) - 8} {
			flip := append([]byte(nil), blob...)
			flip[at] ^= 0x20
			f.Add(flip)
		}
	}
	// Valid checksums over a forged section: only the loader's checks of
	// the values refuse it.
	natural, err := New(g, Defaults())
	if err != nil {
		f.Fatal(err)
	}
	for _, fg := range forgeries {
		f.Add(forgedSnapshot(f, natural, fg.forge))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := loadSnapshotMmapBytes(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("load error does not wrap ErrBadSnapshot: %v", err)
			}
			if eng != nil {
				t.Fatal("partial engine returned alongside error")
			}
			return
		}
		defer eng.Close()
		// An accepted snapshot must actually serve: one query exercises the
		// adopted adjacency, normalization and index views end to end.
		if eng.NumNodes() > 0 {
			if _, err := eng.Query(0); err != nil {
				t.Fatalf("accepted snapshot cannot answer a query: %v", err)
			}
		}
	})
}
