package tpa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestEngineSnapshotRoundTrip saves a natural-order engine with
// SaveSnapshotFile and reloads it with LoadSnapshotFile: graph size,
// parameters and every score must survive bit for bit.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	g := RandomSBMGraph(500, 5, 6, 0.9, 11)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Graph().NumNodes() != g.NumNodes() || loaded.Graph().NumEdges() != g.NumEdges() {
		t.Fatalf("loaded graph %d/%d, want %d/%d", loaded.Graph().NumNodes(),
			loaded.Graph().NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if ls, lt := loaded.Params(); ls != 5 || lt != 10 {
		t.Fatalf("params changed: S=%d T=%d", ls, lt)
	}
	for _, seed := range []int{0, 42, 499} {
		a, err := eng.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: score %d differs after snapshot round trip", seed, i)
			}
		}
	}
}

// TestSnapshotPermutationRoundTrip is the correctness crux of the shard
// layout: external node ids must never leak the permutation. A sharded
// engine must answer (element-for-element, in external id space) like the
// unsharded engine built from the same graph, and a snapshot save/load must
// reproduce the sharded engine bit-exactly — the TPAM perm section carries
// the permutation, so a loader that dropped or misapplied it would scatter
// every score to the wrong node.
func TestSnapshotPermutationRoundTrip(t *testing.T) {
	g := shuffledGraph(t, RandomSBMGraph(400, 4, 6, 0.9, 21), 1)
	nat, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prec Precision
		tol  float64 // vs the unsharded engine, per element
	}{
		// The shard layout only changes float summation order in f64.
		{"2shard-f64", Float64, 1e-12},
		// float32 adds rounding of the stored index and the propagation.
		{"2shard-f32", Float32, 2e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Defaults()
			o.Precision = tc.prec
			eng, err := NewSharded(g, 2, o)
			if err != nil {
				t.Fatal(err)
			}
			if !isPermuted(eng) {
				t.Fatal("the shard plan left the engine unpermuted")
			}
			path := filepath.Join(t.TempDir(), "g.tpam")
			if err := eng.SaveSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Permutation() == nil {
				t.Fatal("snapshot dropped the permutation")
			}
			if loaded.Precision() != tc.prec {
				t.Fatalf("snapshot precision %v, want %v", loaded.Precision(), tc.prec)
			}
			for _, seed := range []int{0, 57, 201, 399} {
				want, err := nat.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				reloaded, err := loaded.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					// A permutation leak misroutes whole scores (O(1e-2)
					// errors); summation reorder and f32 rounding stay
					// below tol. Element-wise comparison pins the ids.
					if d := got[i] - want[i]; d > tc.tol || d < -tc.tol {
						t.Fatalf("seed %d node %d: sharded %g vs unsharded %g (Δ %g > %g)",
							seed, i, got[i], want[i], d, tc.tol)
					}
					if reloaded[i] != got[i] {
						t.Fatalf("seed %d node %d: score changed across snapshot round trip", seed, i)
					}
				}
			}
		})
	}
}

// TestLoadSnapshotRejectsCorruption flips one bit of the stored index in a
// saved snapshot: the load must fail typed instead of serving wrong scores.
func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	g := RandomSBMGraph(100, 2, 4, 0.9, 12)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], math.Float64bits(eng.tpa.StrangerVector()[0]))
	at := bytes.Index(blob, word[:])
	if at < 0 {
		t.Fatal("stranger vector not found in the snapshot")
	}
	blob[at] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupted snapshot: got %v, want ErrBadSnapshot", err)
	}
}
