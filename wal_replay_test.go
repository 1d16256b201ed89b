package tpa_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tpa"
	"tpa/internal/ingest"
)

// randomMutationBatch builds a small random edge batch over n nodes.
func randomMutationBatch(rng *rand.Rand, n int) (adds, removes [][2]int) {
	for i := 0; i < 1+rng.Intn(5); i++ {
		adds = append(adds, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	for i := 0; i < rng.Intn(3); i++ {
		removes = append(removes, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return adds, removes
}

// tearLastSegment chops a few bytes off the newest WAL segment, simulating
// a crash mid-write of the final record.
func tearLastSegment(t *testing.T, dir string, cut int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-cut); err != nil {
		t.Fatal(err)
	}
}

// TestReplayWALCrashResume is the crash-safety property test behind the
// `-wal` serving mode: a WAL carrying batches, apply markers (the live
// batcher's grouping), and a frame torn mid-write must replay — on a fresh
// engine built from the same base — to scores that match a reference
// engine which applied the same groups directly. The apply markers are
// what make this exact: the incremental reindex is path-dependent, so
// replay has to reproduce the original ApplyEdges partitioning, not just
// the edge set.
func TestReplayWALCrashResume(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			const n = 150
			g := tpa.RandomCommunityGraph(n, 1200, 4, int64(31+trial))
			o := tpa.Defaults()
			o.Workers = 1
			base, err := tpa.New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			w, err := ingest.OpenWAL(dir, ingest.WALOptions{Fsync: ingest.FsyncOff, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}

			// Marked groups: 1-4 logged batches each, applied as one
			// ApplyEdges call by the live batcher (and so by replay).
			ref := base
			for gi := 0; gi < 6+rng.Intn(4); gi++ {
				var gAdds, gRemoves [][2]int
				var last uint64
				for bi := 0; bi < 1+rng.Intn(4); bi++ {
					adds, removes := randomMutationBatch(rng, n)
					seq, err := w.Append(adds, removes)
					if err != nil {
						t.Fatal(err)
					}
					last = seq
					gAdds = append(gAdds, adds...)
					gRemoves = append(gRemoves, removes...)
				}
				if err := w.AppendApplyMarker(last); err != nil {
					t.Fatal(err)
				}
				if ref, _, err = ref.ApplyEdges(gAdds, gRemoves); err != nil {
					t.Fatal(err)
				}
			}

			// A trailing logged-but-unmarked batch: the crash hit after the
			// record was durable but before the batcher applied it. Replay
			// delivers it as one final group.
			tailAdds, tailRemoves := randomMutationBatch(rng, n)
			if _, err := w.Append(tailAdds, tailRemoves); err != nil {
				t.Fatal(err)
			}
			if ref, _, err = ref.ApplyEdges(tailAdds, tailRemoves); err != nil {
				t.Fatal(err)
			}

			// And one record torn mid-frame: the crash hit during the
			// write. Its frame is [len u32][crc u32] + 17 payload bytes per
			// record + 8 per edge; cutting 1..32 bytes always leaves a
			// partial frame. The reference never sees it.
			if _, err := w.Append([][2]int{{1, 2}}, nil); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tearLastSegment(t, dir, int64(1+rng.Intn(32)))

			replayed, stats, err := base.ReplayWAL(dir)
			if err != nil {
				t.Fatalf("replay after torn tail: %v", err)
			}
			if !stats.Truncated {
				t.Fatalf("torn tail not detected: %+v", stats)
			}
			if replayed.NumEdges() != ref.NumEdges() {
				t.Fatalf("replayed %d edges, reference %d", replayed.NumEdges(), ref.NumEdges())
			}
			if d := math.Abs(replayed.StaleBound() - ref.StaleBound()); d > 1e-12 {
				t.Fatalf("replayed StaleBound %g, reference %g", replayed.StaleBound(), ref.StaleBound())
			}
			for _, seed := range rng.Perm(n)[:10] {
				got, err := replayed.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				var l1 float64
				for i := range want {
					d := got[i] - want[i]
					if d < 0 {
						d = -d
					}
					l1 += d
				}
				if l1 > 1e-12 {
					t.Fatalf("seed %d: replayed scores deviate from reference by L1 %g", seed, l1)
				}
			}
		})
	}
}

// TestReplayWALMappedSharded is the boot path of `tpad serve -wal` over a
// sharded TPAM snapshot: a WAL replayed onto a fresh mapping of the
// snapshot must reproduce, to 1e-12, the engine the live process built by
// applying the same groups to its own mapping — still 2-sharded, now on
// the heap.
func TestReplayWALMappedSharded(t *testing.T) {
	const n = 300
	g := tpa.RandomSBMGraph(n, 4, 5, 0.9, 8)
	built, err := tpa.NewSharded(g, 2, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := built.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	load := func() *tpa.Engine {
		eng, err := tpa.LoadSnapshotMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	dir := t.TempDir()
	w, err := ingest.OpenWAL(dir, ingest.WALOptions{Fsync: ingest.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	live := load()
	for i := 0; i < 6; i++ {
		adds, removes := randomMutationBatch(rng, n)
		seq, err := w.Append(adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendApplyMarker(seq); err != nil {
			t.Fatal(err)
		}
		if live, _, err = live.ApplyEdges(adds, removes); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, stats, err := load().ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applies != 6 {
		t.Fatalf("replay applied %d groups, want 6: %+v", stats.Applies, stats)
	}
	if replayed.Mapped() || replayed.NumShards() != 2 || replayed.NumEdges() != live.NumEdges() {
		t.Fatalf("replayed engine: mapped %v, %d shards, %d edges; want heap, 2, %d",
			replayed.Mapped(), replayed.NumShards(), replayed.NumEdges(), live.NumEdges())
	}
	if d := math.Abs(replayed.StaleBound() - live.StaleBound()); d > 1e-12 {
		t.Fatalf("replayed StaleBound %g, live %g", replayed.StaleBound(), live.StaleBound())
	}
	for _, seed := range rng.Perm(n)[:10] {
		got, err := replayed.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := live.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := l1dist(got, want); d > 1e-12 {
			t.Fatalf("seed %d: replayed scores deviate from the live engine by L1 %g", seed, d)
		}
	}
}
