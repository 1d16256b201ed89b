package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEngine is a minimal set-semantic edge store standing in for the
// tpa engine: good enough to check ordering, coalescing, and compaction
// without importing the real thing.
type fakeEngine struct {
	mu      sync.Mutex
	edges   map[[2]int]bool
	applies [][2][][2]int // history of (adds, removes) per Apply call
	applied chan struct{} // signalled once per Apply
	block   chan struct{} // non-nil: Apply waits on it
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{edges: make(map[[2]int]bool), applied: make(chan struct{}, 1024)}
}

func (f *fakeEngine) apply(adds, removes [][2]int) error {
	if f.block != nil {
		<-f.block
	}
	f.mu.Lock()
	for _, e := range adds {
		f.edges[e] = true
	}
	for _, e := range removes {
		delete(f.edges, e)
	}
	f.applies = append(f.applies, [2][][2]int{adds, removes})
	f.mu.Unlock()
	select {
	case f.applied <- struct{}{}:
	default:
	}
	return nil
}

func (f *fakeEngine) has(e [2]int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.edges[e]
}

func (f *fakeEngine) applyCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.applies)
}

func testIngestor(t *testing.T, eng *fakeEngine, opts Options, hooks Hooks) *Ingestor {
	t.Helper()
	w, err := OpenWAL(t.TempDir(), WALOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if hooks.Apply == nil {
		hooks.Apply = eng.apply
	}
	in, err := New(w, hooks, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	return in
}

func TestIngestorAppliesInOrder(t *testing.T) {
	eng := newFakeEngine()
	in := testIngestor(t, eng, Options{MaxBatchAge: time.Millisecond}, Hooks{})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := in.Enqueue(ctx, edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !eng.has([2]int{i, i + 1}) {
			t.Fatalf("edge (%d,%d) missing after Close", i, i+1)
		}
	}
	st := in.Stats()
	if st.Enqueued != 100 || st.AppliedEdges != 100 || st.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AppliedBatches >= 100 {
		t.Fatalf("no coalescing happened: %d batches for 100 events", st.AppliedBatches)
	}
}

func TestIngestorConflictSplitsBatch(t *testing.T) {
	eng := newFakeEngine()
	// Huge age/count so only the conflict rule can split the group.
	in := testIngestor(t, eng, Options{MaxBatchAge: time.Hour, MaxBatchEdges: 1 << 20}, Hooks{})
	ctx := context.Background()
	// remove (1,2) then re-add it: coalesced into one ApplyEdges the
	// remove would win (adds apply first); sequentially the add wins.
	if _, err := in.Enqueue(ctx, edges(1, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Enqueue(ctx, nil, edges(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Enqueue(ctx, edges(1, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if !eng.has([2]int{1, 2}) {
		t.Fatal("edge (1,2) must be present: the re-add is the last event")
	}
	if eng.applyCount() < 2 {
		t.Fatalf("conflict did not split the batch: %d applies", eng.applyCount())
	}
}

func TestIngestorRejectMode(t *testing.T) {
	eng := newFakeEngine()
	eng.block = make(chan struct{})
	in := testIngestor(t, eng, Options{Mode: ModeReject, QueueSize: 2, MaxBatchAge: time.Millisecond}, Hooks{})
	ctx := context.Background()
	// The batcher takes the first event and parks in the blocked Apply;
	// fill the remaining capacity, then expect ErrQueueFull.
	var full bool
	for i := 0; i < 10; i++ {
		_, err := in.Enqueue(ctx, edges(i, i+1), nil)
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never filled under reject mode")
	}
	if in.Stats().Rejected == 0 {
		t.Fatal("Rejected counter did not advance")
	}
	close(eng.block)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything admitted (not rejected) was applied.
	if got, want := in.Stats().AppliedEdges, in.Stats().Enqueued; got != want {
		t.Fatalf("applied %d edges, admitted %d", got, want)
	}
}

func TestIngestorDropMode(t *testing.T) {
	eng := newFakeEngine()
	eng.block = make(chan struct{})
	in := testIngestor(t, eng, Options{Mode: ModeDrop, QueueSize: 2, MaxBatchAge: time.Millisecond}, Hooks{})
	ctx := context.Background()
	var dropped bool
	for i := 0; i < 10; i++ {
		res, err := in.Enqueue(ctx, edges(i, i+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("queue never dropped under drop mode")
	}
	st := in.Stats()
	if st.Dropped == 0 {
		t.Fatal("Dropped counter did not advance")
	}
	// Dropped events must not reach the WAL: records == enqueued.
	if st.WALRecords != st.Enqueued {
		t.Fatalf("WAL has %d records for %d admitted events", st.WALRecords, st.Enqueued)
	}
	close(eng.block)
}

func TestIngestorBlockModeWaits(t *testing.T) {
	eng := newFakeEngine()
	eng.block = make(chan struct{})
	in := testIngestor(t, eng, Options{Mode: ModeBlock, QueueSize: 1, MaxBatchAge: time.Millisecond}, Hooks{})
	ctx := context.Background()
	if _, err := in.Enqueue(ctx, edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	// Queue is full (batcher parked in Apply, slot still held). A
	// context-bounded Enqueue must block, then fail with the ctx error.
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := in.Enqueue(short, edges(1, 2), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked enqueue: err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("enqueue returned before the context deadline: did not block")
	}
	// Unblock; now a blocking enqueue succeeds.
	close(eng.block)
	if _, err := in.Enqueue(ctx, edges(1, 2), nil); err != nil {
		t.Fatal(err)
	}
}

func TestIngestorValidateRunsBeforeWAL(t *testing.T) {
	eng := newFakeEngine()
	bad := errors.New("bad edge")
	in := testIngestor(t, eng, Options{}, Hooks{
		Apply:    eng.apply,
		Validate: func(adds, _ [][2]int) error { return bad },
	})
	if _, err := in.Enqueue(context.Background(), edges(0, 1), nil); !errors.Is(err, bad) {
		t.Fatalf("err = %v, want validation error", err)
	}
	if st := in.Stats(); st.WALRecords != 0 || st.Enqueued != 0 {
		t.Fatalf("rejected batch leaked into WAL/queue: %+v", st)
	}
}

func TestIngestorAutoCompaction(t *testing.T) {
	eng := newFakeEngine()
	var compactions int
	var mu sync.Mutex
	var in *Ingestor
	in = testIngestor(t, eng, Options{
		MaxBatchAge:     time.Millisecond,
		CompactWALBytes: 1, // every flush triggers
	}, Hooks{
		Apply: eng.apply,
		Compact: func() error {
			mu.Lock()
			compactions++
			mu.Unlock()
			return nil
		},
	})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := in.Enqueue(ctx, edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for in.Stats().Compactions == 0 {
		select {
		case <-deadline:
			t.Fatal("auto-compaction never fired")
		case <-time.After(time.Millisecond):
		}
	}
	mu.Lock()
	n := compactions
	mu.Unlock()
	if n == 0 {
		t.Fatal("Compact hook not invoked")
	}
	// The WAL was truncated after compaction.
	if lag := in.WAL().LagBytes(); lag > 1024 {
		t.Fatalf("WAL lag after compaction = %d", lag)
	}
}

func TestIngestorCompactionFailureKeepsWAL(t *testing.T) {
	eng := newFakeEngine()
	boom := errors.New("disk full")
	in := testIngestor(t, eng, Options{
		MaxBatchAge:     time.Millisecond,
		CompactWALBytes: 1,
	}, Hooks{
		Apply:   eng.apply,
		Compact: func() error { return boom },
	})
	if _, err := in.Enqueue(context.Background(), edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for in.Stats().CompactErrors == 0 {
		select {
		case <-deadline:
			t.Fatal("compaction failure never recorded")
		case <-time.After(time.Millisecond):
		}
	}
	if in.Stats().Compactions != 0 {
		t.Fatal("failed compaction counted as success")
	}
	// The WAL still holds the records: nothing was truncated.
	if in.Stats().WALRecords == 0 {
		t.Fatal("WAL records lost despite failed compaction")
	}
	if !errors.Is(in.LastApplyError(), boom) {
		t.Fatalf("LastApplyError = %v, want %v", in.LastApplyError(), boom)
	}
}

func TestIngestorEnqueueAfterClose(t *testing.T) {
	eng := newFakeEngine()
	in := testIngestor(t, eng, Options{}, Hooks{})
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Enqueue(context.Background(), edges(0, 1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestorReplayMatchesLiveGrouping(t *testing.T) {
	eng := newFakeEngine()
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(w, Hooks{Apply: eng.apply}, Options{MaxBatchAge: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		var adds, removes [][2]int
		if i%3 == 0 {
			removes = edges(i-3, i-2)
		}
		adds = edges(i, i+1)
		if _, err := in.Enqueue(ctx, adds, removes); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			time.Sleep(3 * time.Millisecond) // force age flushes mid-stream
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay must reproduce the exact ApplyEdges partitioning the live
	// batcher used — group for group, edge for edge.
	var replayed [][2][][2]int
	if _, err := Replay(dir, func(adds, removes [][2]int) error {
		replayed = append(replayed, [2][][2]int{adds, removes})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	live := eng.applies
	eng.mu.Unlock()
	if len(replayed) != len(live) {
		t.Fatalf("replay groups = %d, live groups = %d", len(replayed), len(live))
	}
	for i := range live {
		if !equalEdges(live[i][0], replayed[i][0]) || !equalEdges(live[i][1], replayed[i][1]) {
			t.Fatalf("group %d differs:\nlive   %v\nreplay %v", i, live[i], replayed[i])
		}
	}
}

func equalEdges(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIngestorOversizedBatchRejected(t *testing.T) {
	eng := newFakeEngine()
	in := testIngestor(t, eng, Options{}, Hooks{})
	big := make([][2]int, MaxRecordEdges+1)
	_, err := in.Enqueue(context.Background(), big, nil)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	// The refusal happened before admission: nothing logged, nothing
	// counted as a drop or reject, no queue slot consumed.
	st := in.Stats()
	if st.WALRecords != 0 || st.Enqueued != 0 || st.Dropped != 0 || st.Rejected != 0 || st.Depth != 0 {
		t.Fatalf("oversized batch leaked into the pipeline: %+v", st)
	}
}

func TestIngestorApplyFailureBlocksCompaction(t *testing.T) {
	// Once a batch fails to apply, the WAL is its only copy; compaction
	// would truncate it and silently lose the acknowledged write.
	eng := newFakeEngine()
	boom := errors.New("reindex blew up")
	var fail atomic.Bool
	compacted := make(chan struct{}, 16)
	in := testIngestor(t, eng, Options{
		MaxBatchAge:     time.Millisecond,
		CompactWALBytes: 1, // every flush triggers the size check
	}, Hooks{
		Apply: func(adds, removes [][2]int) error {
			if fail.Load() {
				return boom
			}
			return eng.apply(adds, removes)
		},
		Compact: func() error {
			compacted <- struct{}{}
			return nil
		},
	})
	ctx := context.Background()
	fail.Store(true)
	if _, err := in.Enqueue(ctx, edges(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for in.Stats().ApplyErrors == 0 {
		select {
		case <-deadline:
			t.Fatal("apply failure never recorded")
		case <-time.After(time.Millisecond):
		}
	}
	// Later batches succeed, but compaction stays refused: the records
	// survive in the WAL and CompactBlocked advances.
	fail.Store(false)
	for i := 1; i < 5; i++ {
		if _, err := in.Enqueue(ctx, edges(i, i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	for in.Stats().CompactBlocked == 0 {
		select {
		case <-deadline:
			t.Fatal("blocked compaction never recorded")
		case <-time.After(time.Millisecond):
		}
	}
	st := in.Stats()
	if st.Compactions != 0 {
		t.Fatalf("compaction ran despite an outstanding apply failure: %+v", st)
	}
	select {
	case <-compacted:
		t.Fatal("Compact hook invoked despite an outstanding apply failure")
	default:
	}
	if st.WALRecords == 0 {
		t.Fatal("WAL truncated while holding the only copy of a failed batch")
	}
}

func TestIngestorRetryableApplyRetriesInPlace(t *testing.T) {
	// A transient failure (ErrRetryable) is re-run by the batcher and,
	// once it clears, never surfaces as an apply failure — so it does not
	// strand the batch or block compaction.
	eng := newFakeEngine()
	var calls atomic.Int64
	in := testIngestor(t, eng, Options{MaxBatchAge: time.Millisecond}, Hooks{
		Apply: func(adds, removes [][2]int) error {
			if calls.Add(1) == 1 {
				return fmt.Errorf("%w: swap lock busy", ErrRetryable)
			}
			return eng.apply(adds, removes)
		},
	})
	if _, err := in.Enqueue(context.Background(), edges(3, 4), nil); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if !eng.has([2]int{3, 4}) {
		t.Fatal("batch lost after a retryable failure")
	}
	st := in.Stats()
	if st.ApplyErrors != 0 {
		t.Fatalf("retryable failure recorded as an apply error: %+v", st)
	}
	if calls.Load() < 2 {
		t.Fatalf("Apply called %d times, want a retry", calls.Load())
	}
}
