package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what Enqueue does when the queue is at capacity.
type Mode int

const (
	// ModeBlock makes Enqueue wait for a free slot (or ctx cancellation).
	ModeBlock Mode = iota
	// ModeDrop silently discards the event (counted, never logged to the
	// WAL, Result.Dropped set).
	ModeDrop
	// ModeReject fails the event with ErrQueueFull so the caller can
	// surface backpressure (HTTP 429).
	ModeReject
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeDrop:
		return "drop"
	case ModeReject:
		return "reject"
	default:
		return "block"
	}
}

// ParseMode parses an -ingest-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "block":
		return ModeBlock, nil
	case "drop":
		return ModeDrop, nil
	case "reject":
		return ModeReject, nil
	}
	return ModeBlock, fmt.Errorf("ingest: unknown backpressure mode %q (want block, drop or reject)", s)
}

// ErrQueueFull is returned by Enqueue under ModeReject when the queue is
// at capacity. Servers translate it to 429 Too Many Requests.
var ErrQueueFull = errors.New("ingest: queue full")

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("ingest: ingestor closed")

// ErrRetryable marks a transient Apply failure (e.g. a swap lock held by a
// long reload). Hooks.Apply wraps its error with ErrRetryable to make the
// batcher retry the batch instead of recording a permanent apply failure.
var ErrRetryable = errors.New("ingest: retryable apply failure")

// maxApplyRetries bounds how many times flush re-runs an Apply that keeps
// failing with ErrRetryable before recording it as a real failure.
const maxApplyRetries = 3

// Hooks are the engine-side callbacks an Ingestor drives. Apply is
// required; the rest are optional.
type Hooks struct {
	// Validate vets a batch before it is admitted (and before it touches
	// the WAL — rejected batches must never be logged, or replay would
	// diverge from the live engine). Return tpa.ErrBadEdge-family errors
	// here.
	Validate func(adds, removes [][2]int) error
	// Apply applies one coalesced batch to the engine. It runs on the
	// batcher goroutine, strictly in WAL order.
	Apply func(adds, removes [][2]int) error
	// Compact rewrites the durable snapshot from the engine's current
	// state. The Ingestor truncates the WAL only after it returns nil.
	Compact func() error
}

// Options configure an Ingestor.
type Options struct {
	// QueueSize bounds the number of pending (admitted, unapplied)
	// events. Default 1024.
	QueueSize int
	// MaxBatchEdges flushes the coalescing group once it holds this many
	// edges. Default 4096.
	MaxBatchEdges int
	// MaxBatchAge flushes a non-empty group after this long even if it
	// is below MaxBatchEdges. Default 25ms.
	MaxBatchAge time.Duration
	// Mode is the backpressure mode (default ModeBlock).
	Mode Mode
	// CompactWALBytes triggers auto-compaction once the live WAL exceeds
	// this many bytes. Zero disables auto-compaction.
	CompactWALBytes int64
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.MaxBatchEdges <= 0 {
		o.MaxBatchEdges = 4096
	}
	if o.MaxBatchAge <= 0 {
		o.MaxBatchAge = 25 * time.Millisecond
	}
	return o
}

// Result reports what Enqueue did with an event.
type Result struct {
	// Seq is the WAL sequence number (zero when Dropped).
	Seq uint64
	// Dropped reports the event was discarded under ModeDrop.
	Dropped bool
}

// Stats is a point-in-time snapshot of ingest health, exported on
// /metrics and /stats.
type Stats struct {
	Depth          int    // admitted events not yet applied
	Capacity       int    // queue size
	Enqueued       int64  // events admitted since start
	Dropped        int64  // events discarded (ModeDrop)
	Rejected       int64  // events refused (ModeReject)
	AppliedBatches int64  // coalesced ApplyEdges calls
	AppliedEdges   int64  // edges (adds+removes) applied
	ApplyErrors    int64  // failed Apply hook calls
	Compactions    int64  // successful auto-compactions
	CompactErrors  int64  // failed auto-compactions
	CompactBlocked int64  // compactions refused: an apply failure left the WAL ahead of the engine
	WALLagBytes    int64  // live WAL volume a restart would replay
	WALRecords     int64  // batch records appended since open
	LastSeq        uint64 // last durable sequence number
}

type event struct {
	seq     uint64
	adds    [][2]int
	removes [][2]int
}

// Ingestor is the single write path for a dynamic graph: it validates,
// logs, batches, applies, and compacts. Create with New, feed with
// Enqueue, stop with Close.
type Ingestor struct {
	wal   *WAL
	hooks Hooks
	opts  Options

	admit   sync.Mutex // serializes WAL append order == channel order
	closed  bool
	closing chan struct{}
	ch      chan event
	slots   chan struct{}
	done    chan struct{}

	enqueued       atomic.Int64
	dropped        atomic.Int64
	rejected       atomic.Int64
	appliedBatches atomic.Int64
	appliedEdges   atomic.Int64
	applyErrors    atomic.Int64
	compactions    atomic.Int64
	compactErrors  atomic.Int64
	compactBlocked atomic.Int64
	// applyFailed counts batches the WAL holds but the engine is missing
	// (Apply failed after the 202 ack). While it is non-zero the WAL is
	// the only copy of those batches, so auto-compaction must not
	// truncate it; only a restart replay recovers them.
	applyFailed atomic.Int64
}

// New starts an Ingestor over an open WAL. The Ingestor owns the WAL from
// here on: Close closes it.
func New(wal *WAL, hooks Hooks, opts Options) (*Ingestor, error) {
	if hooks.Apply == nil {
		return nil, fmt.Errorf("ingest: Hooks.Apply is required")
	}
	opts = opts.withDefaults()
	in := &Ingestor{
		wal:     wal,
		hooks:   hooks,
		opts:    opts,
		closing: make(chan struct{}),
		ch:      make(chan event, opts.QueueSize),
		slots:   make(chan struct{}, opts.QueueSize),
		done:    make(chan struct{}),
	}
	go in.run()
	return in, nil
}

// Enqueue admits one edge-mutation event: validate, acquire a queue slot
// (per the backpressure mode), append to the WAL, hand to the batcher.
// When Enqueue returns with a Seq, the event is durable per the WAL's
// fsync policy and will be applied in sequence order.
func (in *Ingestor) Enqueue(ctx context.Context, adds, removes [][2]int) (Result, error) {
	if len(adds)+len(removes) == 0 {
		return Result{}, nil
	}
	// Refuse batches the WAL cannot frame before they are admitted (they
	// are neither counted as drops/rejects nor logged): a record over the
	// replay size cap would be acknowledged now and thrown away as
	// corruption on the next restart.
	if n := len(adds) + len(removes); n > MaxRecordEdges {
		return Result{}, fmt.Errorf("ingest: batch of %d edges exceeds the %d-edge record limit: %w",
			n, MaxRecordEdges, ErrBatchTooLarge)
	}
	if in.hooks.Validate != nil {
		if err := in.hooks.Validate(adds, removes); err != nil {
			return Result{}, err
		}
	}
	switch in.opts.Mode {
	case ModeReject:
		select {
		case in.slots <- struct{}{}:
		default:
			in.rejected.Add(1)
			return Result{}, ErrQueueFull
		}
	case ModeDrop:
		select {
		case in.slots <- struct{}{}:
		default:
			in.dropped.Add(1)
			return Result{Dropped: true}, nil
		}
	default: // ModeBlock
		select {
		case in.slots <- struct{}{}:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-in.closing:
			return Result{}, ErrClosed
		}
	}
	in.admit.Lock()
	if in.closed {
		in.admit.Unlock()
		<-in.slots
		return Result{}, ErrClosed
	}
	seq, err := in.wal.Append(adds, removes)
	if err != nil {
		in.admit.Unlock()
		<-in.slots
		return Result{}, err
	}
	// Never blocks: ch capacity == slot capacity and we hold a slot.
	in.ch <- event{seq: seq, adds: adds, removes: removes}
	in.admit.Unlock()
	in.enqueued.Add(1)
	return Result{Seq: seq}, nil
}

// Depth is the number of admitted events not yet applied.
func (in *Ingestor) Depth() int { return len(in.slots) }

// Stats returns a point-in-time snapshot of ingest counters.
func (in *Ingestor) Stats() Stats {
	return Stats{
		Depth:          len(in.slots),
		Capacity:       in.opts.QueueSize,
		Enqueued:       in.enqueued.Load(),
		Dropped:        in.dropped.Load(),
		Rejected:       in.rejected.Load(),
		AppliedBatches: in.appliedBatches.Load(),
		AppliedEdges:   in.appliedEdges.Load(),
		ApplyErrors:    in.applyErrors.Load(),
		Compactions:    in.compactions.Load(),
		CompactErrors:  in.compactErrors.Load(),
		CompactBlocked: in.compactBlocked.Load(),
		WALLagBytes:    in.wal.LagBytes(),
		WALRecords:     in.wal.Records(),
		LastSeq:        in.wal.LastSeq(),
	}
}

// Mode returns the configured backpressure mode.
func (in *Ingestor) Mode() Mode { return in.opts.Mode }

// WAL returns the underlying log (for lag/seq introspection).
func (in *Ingestor) WAL() *WAL { return in.wal }

// Close stops admission, drains and applies everything already admitted,
// syncs, and closes the WAL.
func (in *Ingestor) Close() error {
	in.admit.Lock()
	if in.closed {
		in.admit.Unlock()
		<-in.done
		return nil
	}
	in.closed = true
	close(in.closing)
	close(in.ch)
	in.admit.Unlock()
	<-in.done
	return in.wal.Close()
}

// group is the batcher's coalescing buffer: admitted events merged into
// one pending ApplyEdges call.
type group struct {
	adds    [][2]int
	removes [][2]int
	removed map[[2]int]struct{}
	events  int
	lastSeq uint64
}

func (g *group) edges() int { return len(g.adds) + len(g.removes) }

// conflicts reports whether absorbing ev would change semantics:
// ApplyEdges applies adds before removes, so an event that re-adds an
// edge the pending group removes must wait for the next batch (coalesced,
// the remove would win; sequentially, the add does).
func (g *group) conflicts(ev event) bool {
	if len(g.removed) == 0 {
		return false
	}
	for _, e := range ev.adds {
		if _, ok := g.removed[e]; ok {
			return true
		}
	}
	return false
}

func (g *group) absorb(ev event) {
	g.adds = append(g.adds, ev.adds...)
	g.removes = append(g.removes, ev.removes...)
	if len(ev.removes) > 0 {
		if g.removed == nil {
			g.removed = make(map[[2]int]struct{}, len(ev.removes))
		}
		for _, e := range ev.removes {
			g.removed[e] = struct{}{}
		}
	}
	g.events++
	g.lastSeq = ev.seq
}

func (g *group) reset() { *g = group{} }

// flush applies the pending group and records the apply marker so a
// replay reproduces this exact ApplyEdges partitioning. Slots are
// released after the apply, so Depth counts unapplied events. Transient
// failures (ErrRetryable) are re-run in place before being recorded: a
// recorded failure means the WAL is the batch's only copy, which blocks
// auto-compaction until a restart replays it (see maybeCompact).
func (in *Ingestor) flush(g *group) {
	if g.events == 0 {
		return
	}
	err := in.hooks.Apply(g.adds, g.removes)
	for attempt := 0; err != nil && errors.Is(err, ErrRetryable) && attempt < maxApplyRetries; attempt++ {
		err = in.hooks.Apply(g.adds, g.removes)
	}
	if err != nil {
		in.applyErrors.Add(1)
		in.applyFailed.Add(1)
	} else {
		in.appliedBatches.Add(1)
		in.appliedEdges.Add(int64(g.edges()))
	}
	// The marker is written either way: it records grouping, not
	// success, and replay re-applies every batch regardless. A lost
	// marker loses no edges: the replay merely groups those batches
	// differently.
	_ = in.wal.AppendApplyMarker(g.lastSeq)
	for i := 0; i < g.events; i++ {
		<-in.slots
	}
	g.reset()
}

// run is the batcher goroutine: coalesce admitted events by count/age
// (splitting at semantic conflicts), apply in WAL order, then consider
// compaction.
func (in *Ingestor) run() {
	defer close(in.done)
	var g group
	for {
		ev, ok := <-in.ch
		if !ok {
			in.flush(&g)
			return
		}
		g.absorb(ev)
		deadline := time.NewTimer(in.opts.MaxBatchAge)
		closed := false
	fill:
		for g.edges() < in.opts.MaxBatchEdges {
			select {
			case ev, ok := <-in.ch:
				if !ok {
					closed = true
					break fill
				}
				if g.conflicts(ev) {
					in.flush(&g)
				}
				g.absorb(ev)
			case <-deadline.C:
				break fill
			}
		}
		deadline.Stop()
		in.flush(&g)
		if closed {
			return
		}
		in.maybeCompact()
	}
}

// maybeCompact runs the auto-compaction cycle once the live WAL reaches
// CompactWALBytes: block admission, drain and apply everything already
// logged, rewrite the snapshot (hook), then truncate the WAL. Order
// matters — the WAL is only truncated after the snapshot is durable, and
// both crash windows are safe: new snapshot + old WAL replays as no-ops
// (edge mutations are set-semantic), old snapshot + old WAL replays
// everything. Compaction is refused outright (CompactBlocked) while any
// apply failure is outstanding, since then the WAL holds batches the
// engine state — and thus the snapshot — would not include.
func (in *Ingestor) maybeCompact() {
	if in.hooks.Compact == nil || in.opts.CompactWALBytes <= 0 || in.wal.LagBytes() < in.opts.CompactWALBytes {
		return
	}
	in.admit.Lock()
	defer in.admit.Unlock()
	// Nothing new can be admitted; drain events logged before the lock
	// so the snapshot covers every WAL record about to be truncated.
	var g group
drain:
	for {
		select {
		case ev, ok := <-in.ch:
			if !ok {
				break drain
			}
			if g.conflicts(ev) {
				in.flush(&g)
			}
			g.absorb(ev)
		default:
			break drain
		}
	}
	in.flush(&g)
	// A failed Apply leaves the WAL holding batches the engine never saw;
	// truncating it now would turn a recoverable gap (restart replay) into
	// silent loss of an acknowledged write. Refuse until a restart clears
	// the backlog.
	if in.applyFailed.Load() > 0 {
		in.compactBlocked.Add(1)
		return
	}
	if err := in.hooks.Compact(); err != nil {
		in.compactErrors.Add(1)
		return
	}
	if err := in.wal.Reset(); err != nil {
		in.compactErrors.Add(1)
		return
	}
	in.compactions.Add(1)
}
