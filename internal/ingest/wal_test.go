package ingest

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tpa/internal/binio"
)

func testWAL(t *testing.T, dir string, opts WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func edges(pairs ...int) [][2]int {
	if len(pairs)%2 != 0 {
		panic("odd pair list")
	}
	out := make([][2]int, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, [2]int{pairs[i], pairs[i+1]})
	}
	return out
}

type applied struct {
	adds    [][2]int
	removes [][2]int
}

func collect(t *testing.T, dir string) ([]applied, ReplayStats) {
	t.Helper()
	var got []applied
	stats, err := Replay(dir, func(adds, removes [][2]int) error {
		got = append(got, applied{adds, removes})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, stats
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{Fsync: FsyncOff})
	if _, err := w.Append(edges(0, 1, 1, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(nil, edges(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendApplyMarker(2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(edges(3, 4), edges(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats := collect(t, dir)
	want := []applied{
		{edges(0, 1, 1, 2), edges(1, 2)}, // marker group: batches 1+2
		{edges(3, 4), edges(0, 1)},       // unmarked tail
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay groups = %+v, want %+v", got, want)
	}
	if stats.Records != 3 || stats.Applies != 2 || stats.LastSeq != 3 || stats.Truncated {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Edges != 5 {
		t.Fatalf("Edges = %d, want 5", stats.Edges)
	}
}

func TestWALReplayEmptyAndMissingDir(t *testing.T) {
	stats, err := Replay(filepath.Join(t.TempDir(), "nope"), func(_, _ [][2]int) error {
		t.Fatal("apply called for missing dir")
		return nil
	})
	if err != nil || stats.Records != 0 {
		t.Fatalf("missing dir: stats=%+v err=%v", stats, err)
	}
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	w.Close()
	stats, err = Replay(dir, func(_, _ [][2]int) error {
		t.Fatal("apply called for empty WAL")
		return nil
	})
	if err != nil || stats.Records != 0 || stats.Segments != 1 {
		t.Fatalf("empty WAL: stats=%+v err=%v", stats, err)
	}
}

func TestWALSeqContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	for i := 0; i < 3; i++ {
		if _, err := w.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2 := testWAL(t, dir, WALOptions{})
	seq, err := w2.Append(edges(9, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", seq)
	}
	w2.Close()

	got, stats := collect(t, dir)
	if stats.Records != 4 || stats.LastSeq != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(got) != 1 { // no markers: single trailing group
		t.Fatalf("groups = %d, want 1", len(got))
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{SegmentBytes: 256, Fsync: FsyncOff})
	for i := 0; i < 50; i++ {
		if _, err := w.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	got, stats := collect(t, dir)
	if stats.Records != 50 || stats.Segments != len(segs) {
		t.Fatalf("stats = %+v over %d segments", stats, len(segs))
	}
	var n int
	for _, g := range got {
		n += len(g.adds)
	}
	if n != 50 {
		t.Fatalf("replayed %d adds, want 50", n)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{Fsync: FsyncOff})
	for i := 0; i < 5; i++ {
		if _, err := w.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendApplyMarker(3); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, _ := segmentFiles(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Chop the file at every byte offset past the header: replay must
	// never error and never panic — a torn tail is a clean stop.
	for cut := walHeaderSize; cut < len(full); cut++ {
		if err := os.WriteFile(segs[0], full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var records int
		stats, err := Replay(dir, func(adds, removes [][2]int) error {
			records += len(adds) + len(removes)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: Replay error %v", cut, err)
		}
		// A cut at an exact frame boundary reads as a clean shorter log;
		// any other cut must be flagged as a torn tail.
		if stats.Truncated && stats.TailError == nil {
			t.Fatalf("cut=%d: Truncated without TailError", cut)
		}
		if records > 5 {
			t.Fatalf("cut=%d: replayed %d edges from 5-edge log", cut, records)
		}
	}
}

func TestWALBitflipTailIgnored(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{Fsync: FsyncOff})
	if _, err := w.Append(edges(1, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(edges(3, 4), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, _ := segmentFiles(dir)
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the LAST record's payload: CRC catches it, the
	// first record still replays, no error.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(segs[0], corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if !stats.Truncated || stats.Records != 1 {
		t.Fatalf("stats = %+v, want Truncated with 1 record", stats)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].adds, edges(1, 2)) {
		t.Fatalf("groups = %+v", got)
	}
}

func TestWALMidStreamCorruptionTyped(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{SegmentBytes: 64, Fsync: FsyncOff}) // tiny: every append rotates
	for i := 0; i < 4; i++ {
		if _, err := w.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := segmentFiles(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment's record payload: later segments are
	// valid, so skipping silently would replay a hole → typed error.
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0xff
	if err := os.WriteFile(segs[0], full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, func(_, _ [][2]int) error { return nil })
	if !errors.Is(err, binio.ErrBadSnapshot) {
		t.Fatalf("mid-stream corruption: err = %v, want ErrBadSnapshot family", err)
	}
}

func TestWALBadHeaderTyped(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	if _, err := w.Append(edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, _ := segmentFiles(dir)
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(full[0:], 0x4d415054) // "TPAM" snapshot magic
	if err := os.WriteFile(segs[0], full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, func(_, _ [][2]int) error { return nil })
	if !errors.Is(err, binio.ErrBadSnapshot) {
		t.Fatalf("bad magic: err = %v, want ErrBadSnapshot family", err)
	}
}

func TestWALAbsurdRecordLength(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	if _, err := w.Append(edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	segs, _ := segmentFiles(dir)
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A huge length prefix must not drive a huge allocation: it is a
	// torn tail (last segment) — clean stop, bounded memory.
	binary.LittleEndian.PutUint32(full[walHeaderSize:], 0xfffffff0)
	if err := os.WriteFile(segs[0], full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats := collect(t, dir)
	if !stats.Truncated || stats.Records != 0 {
		t.Fatalf("stats = %+v, want truncated with 0 records", stats)
	}
}

func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{SegmentBytes: 128, Fsync: FsyncOff})
	for i := 0; i < 20; i++ {
		if _, err := w.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.LagBytes() <= walHeaderSize {
		t.Fatalf("LagBytes = %d before reset", w.LagBytes())
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if lag := w.LagBytes(); lag != walHeaderSize {
		t.Fatalf("LagBytes after reset = %d, want %d", lag, walHeaderSize)
	}
	// Sequence numbers stay monotonic across the reset.
	seq, err := w.Append(edges(0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 21 {
		t.Fatalf("seq after reset = %d, want 21", seq)
	}
	w.Close()
	got, stats := collect(t, dir)
	if stats.Records != 1 || len(got) != 1 {
		t.Fatalf("post-reset replay: stats=%+v groups=%d", stats, len(got))
	}
}

// TestWALSyncsDirectory: every segment the log creates (at open and on
// rotation) and Reset's removes are followed by a sync of the WAL
// directory, so a segment's name is as durable as the records synced into
// it. Each sync is recorded with the segments present when it ran. Under
// FsyncOff the log syncs nothing.
func TestWALSyncsDirectory(t *testing.T) {
	var synced [][]string
	syncDir = func(dir string) error {
		segs, err := segmentFiles(dir)
		synced = append(synced, segs)
		return err
	}
	t.Cleanup(func() { syncDir = binio.SyncDir })

	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{SegmentBytes: 64, Fsync: FsyncBatch}) // tiny: rotates every other append
	for i := 0; i < 6; i++ {
		if _, err := w.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 || len(synced) != len(segs) {
		t.Fatalf("%d segments created, %d directory syncs", len(segs), len(synced))
	}
	for i, present := range synced {
		if !reflect.DeepEqual(present, segs[:i+1]) {
			t.Fatalf("sync %d ran with segments %v, want %v", i, present, segs[:i+1])
		}
	}
	synced = nil
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	after, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 || len(synced[0]) != 0 || !reflect.DeepEqual(synced[1], after) {
		t.Fatalf("Reset synced the directory with segments %v, want [] after the removes, then %v", synced, after)
	}

	synced = nil
	off := testWAL(t, t.TempDir(), WALOptions{SegmentBytes: 64, Fsync: FsyncOff})
	for i := 0; i < 3; i++ {
		if _, err := off.Append(edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := off.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 0 {
		t.Fatalf("fsync off: %d directory syncs, want 0", len(synced))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "batch": FsyncBatch, "": FsyncBatch,
		"off": FsyncOff, "OFF": FsyncOff, "none": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy(sometimes) should error")
	}
	if FsyncAlways.String() != "always" || FsyncBatch.String() != "batch" || FsyncOff.String() != "off" {
		t.Error("FsyncPolicy.String round-trip broken")
	}
}

func TestWALFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{Fsync: FsyncAlways})
	if _, err := w.Append(edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	// The record must be durable without Close: read the segment from a
	// second handle.
	got, stats := collect(t, dir)
	if stats.Records != 1 || len(got) != 1 {
		t.Fatalf("fsync=always: stats=%+v groups=%d", stats, len(got))
	}
	w.Close()
}

func TestWALAppendOversizedBatch(t *testing.T) {
	// A batch the replay size cap cannot frame must be refused up front:
	// if it were logged, readSegment would reject its length prefix as an
	// "implausible record length" and throw away the acknowledged batch
	// (and, mid-log, refuse to boot at all).
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{Fsync: FsyncOff})
	big := make([][2]int, MaxRecordEdges+1)
	if _, err := w.Append(big, nil); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("Append(%d edges) err = %v, want ErrBatchTooLarge", len(big), err)
	}
	// The refusal consumed no sequence number and left the log appendable.
	seq, err := w.Append(edges(0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("seq after refused batch = %d, want 1", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != 1 || stats.LastSeq != 1 || stats.Truncated {
		t.Fatalf("replay after refused batch: groups=%d stats=%+v", len(got), stats)
	}
	// The cap itself round-trips: a maximal batch is framed and replayed.
	if sz := batchFixedBytes + 8*MaxRecordEdges; sz > maxRecordBytes {
		t.Fatalf("MaxRecordEdges payload %d exceeds maxRecordBytes %d", sz, maxRecordBytes)
	}
}
