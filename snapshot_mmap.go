package tpa

import (
	"fmt"

	"tpa/internal/binio"
	"tpa/internal/core"
	"tpa/internal/graph"
	"tpa/internal/mmapio"
	"tpa/internal/rwr"
	"tpa/internal/shard"
)

// TPAM: the engine snapshot, and the only one. TPAM lays every engine array
// out as a raw little-endian section on a page boundary, so a read-only
// mmap of the file IS the engine's storage: cold start binds views instead
// of copying, resident memory is shared page cache, and load cost is
// O(validation), not O(copy). The generic container — header, section
// table, per-section CRC-32C — lives in internal/mmapio; what the sections
// mean for a TPA engine, and their readers, live in internal/core (tpam.go).
//
// Trust model: the writer refuses to serialize a graph that fails the full
// structural Validate, and the loader checks every file twice before any
// view reaches a kernel. First it verifies the CRC-32C of each section it
// binds, which catches accidental corruption anywhere — headers, adjacency,
// numeric payloads. Then it runs the same Validate on the mapped adjacency
// (monotone pointers, sorted in-range neighbours), checks each 1/outdeg
// entry against the row pointers, and checks the shard bounds and
// permutation, so a file whose checksums were rewritten to match forged
// arrays still fails typed instead of making a query index out of range on
// a worker goroutine or leaking the walk's mass. These passes are
// sequential and read-only, so the load allocates O(1) in graph size on
// the zero-copy path. Every failure wraps ErrBadSnapshot. What no check
// here can catch is a forged file with a valid structure and a wrong
// index: it loads and answers wrongly, but never reads out of bounds.

// SaveSnapshotMmap writes the engine as a memory-mappable TPAM snapshot to
// path, atomically and durably (see mmapio.Writer.WriteFile). The file
// keeps everything the engine serves with: permutation, float32 index,
// shard plan and StaleBound.
func (e *Engine) SaveSnapshotMmap(path string) error {
	var shards []int
	if e.shardOp != nil {
		shards = e.shardOp.Bounds()
	}
	w := mmapio.NewWriter()
	if err := core.WriteSnapshot(w, e.tpa, e.walk, e.perm, shards); err != nil {
		return err
	}
	return w.WriteFile(path)
}

// LoadSnapshotMmap maps a TPAM snapshot written by SaveSnapshotMmap and
// binds an engine directly to the mapping: adjacency, normalization and
// index arrays are views into the file, shared with every other process
// serving it. ApplyEdges works as on any engine and returns a heap engine
// independent of the mapping. Release the mapping with Close when done
// (engines that are simply dropped release it via finalizer). On platforms
// without mmap support the file is decoded onto the heap instead — same
// answers, plain memory. Decode failures wrap ErrBadSnapshot.
func LoadSnapshotMmap(path string) (*Engine, error) {
	s, err := mmapio.Open(path)
	if err != nil {
		return nil, wrapSnapErr(path, err)
	}
	e, err := engineFromMmap(s)
	if err != nil {
		s.Close()
		return nil, wrapSnapErr(path, err)
	}
	return e, nil
}

// loadSnapshotMmapBytes is the in-memory load path, exercised by the fuzz
// target: identical validation to LoadSnapshotMmap, no file or mapping.
func loadSnapshotMmapBytes(data []byte) (*Engine, error) {
	s, err := mmapio.Decode(data)
	if err != nil {
		return nil, err
	}
	e, err := engineFromMmap(s)
	if err != nil {
		s.Close()
		return nil, err
	}
	return e, nil
}

// engineFromMmap builds an Engine over the snapshot's sections. On success
// the engine owns s (pinned via the graph's backing reference and released
// by Close); on failure the caller closes it.
func engineFromMmap(s *mmapio.Snapshot) (*Engine, error) {
	snap, err := core.ReadSnapshot(s)
	if err != nil {
		return nil, err
	}
	var op rwr.Operator = snap.Walk
	var sop *shard.Operator
	if snap.Shards != nil {
		if sop, err = shard.NewOperator(snap.Walk, snap.Shards); err != nil {
			return nil, binio.Errf("%v", err)
		}
		op = sop
	}
	tp, err := core.ReadIndex(s, op)
	if err != nil {
		return nil, err
	}
	var inv []int32
	if snap.Perm != nil {
		inv = graph.InvertPermutation(snap.Perm)
	}
	return &Engine{tpa: tp, walk: snap.Walk, shardOp: sop, perm: snap.Perm, inv: inv, snap: s}, nil
}

// Close releases resources the engine holds beyond the heap — today the
// file mapping of an mmap-loaded engine. It is a no-op on other engines and
// idempotent. The engine must not be queried after Close: its arrays were
// views into the mapping.
func (e *Engine) Close() error {
	if e.snap != nil {
		return e.snap.Close()
	}
	return nil
}

// Mapped reports whether the engine serves from a live file mapping (false
// for heap engines, and for TPAM loads that fell back to a heap decode).
func (e *Engine) Mapped() bool { return e.snap != nil && e.snap.Mapped() }

// StorageBytes reports the engine's storage split between memory-mapped
// bytes (file-backed page cache, shared across processes serving the same
// snapshot) and private heap bytes.
func (e *Engine) StorageBytes() (mapped, heap int64) {
	if e.snap != nil {
		if e.snap.Mapped() {
			return e.snap.SizeBytes(), 0
		}
		return 0, e.snap.SizeBytes()
	}
	invdeg, invdeg32 := e.walk.RawNormalization()
	heap = e.walk.Graph().Bytes() + int64(len(invdeg))*8 + int64(len(invdeg32))*4
	return 0, heap + e.IndexBytes()
}

func wrapSnapErr(path string, err error) error {
	return fmt.Errorf("tpa: loading snapshot %s: %w", path, err)
}
