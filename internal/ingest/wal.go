// Package ingest is the durable write path for dynamic graphs: a
// write-ahead edge log (WAL) that makes mutations crash-safe, a bounded
// queue that batches an edge firehose into ApplyEdges-sized units with
// explicit backpressure, and an auto-compaction scheduler that folds the
// log back into a snapshot before it grows without bound.
//
// The package is deliberately engine-agnostic: it knows how to make edge
// batches durable, how to replay them, and when to compact — the actual
// ApplyEdges and snapshot calls are injected as hooks (see Ingestor),
// so the tpa and server layers stay the only importers of each other.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Segment files are named wal-<16 hex digits>.log; the counter increases
// monotonically so lexicographic order is replay order. Every segment
// starts with a fixed header:
//
//	offset  size  field
//	0       4     magic "TPAW" (little-endian uint32)
//	4       4     format version (1)
//	8       8     sequence number the segment starts after
//
// followed by length-prefixed records:
//
//	offset  size  field
//	0       4     payload length (bytes)
//	4       4     CRC32-C of the payload
//	8       len   payload
//
// The first payload byte is the record type. A batch record (type 1) is
//
//	1     u8   type
//	1..9  u64  sequence number
//	+4    u32  add count
//	+4    u32  remove count
//	...   i32  (src,dst) pairs, adds then removes
//
// and an apply marker (type 2) is
//
//	1     u8   type
//	1..9  u64  upTo: every batch record with seq ≤ upTo not covered by an
//	           earlier marker was applied to the engine as ONE ApplyEdges
//	           call
//
// Markers make replay bit-faithful: the replayed engine re-runs the exact
// ApplyEdges partitioning the live engine ran, so its index is numerically
// identical (not merely within reindex tolerance) to the pre-crash state.
// A torn tail — truncated frame or CRC mismatch in the LAST segment — is
// detected and cleanly ignored; corruption with valid data after it is a
// typed error in the binio.ErrBadSnapshot family.
const (
	walMagic   = uint32(0x57415054) // "TPAW" on the wire (little-endian)
	walVersion = uint32(1)

	recBatch = byte(1)
	recApply = byte(2)

	walHeaderSize = 4 + 4 + 8
	frameOverhead = 4 + 4
)

// maxRecordBytes bounds a single WAL record payload (~1M edges); a length
// prefix beyond it is treated as corruption, so a torn length field cannot
// drive a giant allocation.
const maxRecordBytes = 8 << 20

// batchFixedBytes is the fixed part of a batch payload: type byte,
// sequence number, add count, remove count.
const batchFixedBytes = 1 + 8 + 4 + 4

// MaxRecordEdges is the largest batch (adds + removes) one WAL record can
// hold. Append refuses anything bigger with ErrBatchTooLarge — if it
// logged the record anyway, replay would reject the length prefix as
// corruption and drop the acknowledged batch (plus everything after it in
// the segment).
const MaxRecordEdges = (maxRecordBytes - batchFixedBytes) / 8

// ErrBatchTooLarge reports a batch that exceeds MaxRecordEdges. It is
// returned before the batch is admitted or logged; servers translate it
// to 413 Request Entity Too Large.
var ErrBatchTooLarge = errors.New("ingest: batch exceeds the WAL record size limit")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects when Append forces the log to stable storage.
type FsyncPolicy int

const (
	// FsyncBatch syncs at most once per FsyncInterval, piggybacked on
	// appends (and always on rotation and Close). The default: bounded
	// data loss, near-zero overhead.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways syncs after every record: an acknowledged append is on
	// disk. The durable-but-slow end of the dial.
	FsyncAlways
	// FsyncOff never syncs explicitly; the OS decides. Crash durability is
	// whatever the page cache got around to.
	FsyncOff
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "batch"
	}
}

// ParseFsyncPolicy parses a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off", "none", "never":
		return FsyncOff, nil
	}
	return FsyncBatch, fmt.Errorf("ingest: unknown fsync policy %q (want always, batch or off)", s)
}

// WALOptions configure a write-ahead log.
type WALOptions struct {
	// Fsync is the durability policy (default FsyncBatch).
	Fsync FsyncPolicy
	// FsyncInterval is the maximum staleness under FsyncBatch (default
	// 50ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 64 MiB).
	SegmentBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// WAL is an append-only, CRC-framed log of edge-mutation batches split
// across rotating segment files. Appends are serialized internally; one
// WAL must not be shared across processes.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	seq      uint64 // last assigned batch sequence number
	segIndex uint64 // current segment counter
	segBytes int64  // bytes written to the current segment
	oldBytes int64  // bytes in closed (but live) segments
	records  int64  // batch records appended over the WAL's lifetime
	lastSync time.Time
	scratch  []byte
}

func segmentName(index uint64) string { return fmt.Sprintf("wal-%016x.log", index) }

// segmentFiles lists the live segment paths in replay order.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// OpenWAL opens (creating if needed) the log directory for appending. The
// existing segments are scanned to recover the last sequence number and
// the live byte count; appends then go to a fresh segment, so a torn tail
// left by a crash is never appended after (Replay still reads it up to the
// corruption point).
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating WAL dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, scratch: make([]byte, 0, 4096)}
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: scanning WAL dir: %w", err)
	}
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			return nil, err
		}
		w.oldBytes += st.Size()
		var idx uint64
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%016x.log", &idx); err == nil && idx >= w.segIndex {
			w.segIndex = idx + 1
		}
	}
	// Recover the last sequence number by scanning (the scan tolerates a
	// torn tail the same way Replay does).
	stats, _, err := scanSegments(segs, nil)
	if err != nil {
		return nil, err
	}
	w.seq = stats.LastSeq
	if err := w.rotateLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotateLocked closes the current segment (if any) and opens the next one.
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if w.opts.Fsync != FsyncOff {
			if err := w.f.Sync(); err != nil {
				return err
			}
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.oldBytes += w.segBytes
		w.segBytes = 0
	}
	path := filepath.Join(w.dir, segmentName(w.segIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: creating WAL segment: %w", err)
	}
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], w.seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segIndex++
	w.segBytes = walHeaderSize
	return nil
}

// appendFrame writes one framed record and applies the fsync policy.
// sync forces a sync regardless of policy short of FsyncOff.
func (w *WAL) appendFrame(payload []byte, syncNow bool) error {
	frame := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameOverhead:], payload)
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.segBytes += int64(len(frame))
	switch w.opts.Fsync {
	case FsyncAlways:
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.lastSync = time.Now()
	case FsyncBatch:
		if syncNow || time.Since(w.lastSync) >= w.opts.FsyncInterval {
			if err := w.f.Sync(); err != nil {
				return err
			}
			w.lastSync = time.Now()
		}
	case FsyncOff:
		// the OS decides
	}
	if w.segBytes >= w.opts.SegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

func encodeEdges(buf []byte, edges [][2]int) []byte {
	for _, e := range edges {
		var p [8]byte
		binary.LittleEndian.PutUint32(p[0:], uint32(int32(e[0])))
		binary.LittleEndian.PutUint32(p[4:], uint32(int32(e[1])))
		buf = append(buf, p[:]...)
	}
	return buf
}

// Append logs one insert/remove batch and returns its sequence number.
// Under FsyncAlways the record is on stable storage when Append returns.
// A batch over MaxRecordEdges fails with ErrBatchTooLarge without
// consuming a sequence number or touching the log.
func (w *WAL) Append(adds, removes [][2]int) (uint64, error) {
	if n := len(adds) + len(removes); n > MaxRecordEdges {
		return 0, fmt.Errorf("ingest: batch of %d edges exceeds the %d-edge record limit: %w",
			n, MaxRecordEdges, ErrBatchTooLarge)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("ingest: WAL is closed")
	}
	w.seq++
	buf := w.scratch[:0]
	buf = append(buf, recBatch)
	buf = binary.LittleEndian.AppendUint64(buf, w.seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(adds)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(removes)))
	buf = encodeEdges(buf, adds)
	buf = encodeEdges(buf, removes)
	w.scratch = buf[:0]
	if err := w.appendFrame(buf, false); err != nil {
		return 0, err
	}
	w.records++
	return w.seq, nil
}

// AppendApplyMarker records that every batch up to and including upTo that
// is not covered by an earlier marker was applied to the engine as one
// ApplyEdges call. Markers exist for replay fidelity, not durability, so
// they never force an fsync of their own.
func (w *WAL) AppendApplyMarker(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("ingest: WAL is closed")
	}
	var buf [9]byte
	buf[0] = recApply
	binary.LittleEndian.PutUint64(buf[1:], upTo)
	return w.appendFrame(buf[:], false)
}

// Sync forces everything appended so far to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.lastSync = time.Now()
	return nil
}

// LagBytes is the live log volume: bytes that a replay would have to read
// on top of the last snapshot. Compaction resets it.
func (w *WAL) LagBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.oldBytes + w.segBytes
}

// Records returns the number of batch records appended since open.
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// LastSeq returns the last assigned batch sequence number.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Reset discards every segment and starts a fresh one, keeping the
// sequence counter monotonic. Callers invoke it only after the state the
// log protected has been made durable elsewhere (a snapshot rewrite) —
// see Ingestor. The crash windows are safe in both directions: snapshot
// durable + old WAL still present replays as pure no-ops (edge mutations
// are set-semantic), old snapshot + old WAL replays everything.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("ingest: WAL is closed")
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	w.segBytes = 0
	w.oldBytes = 0
	segs, err := segmentFiles(w.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			return err
		}
	}
	return w.rotateLocked()
}

// Close syncs and closes the log. Append after Close fails.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.opts.Fsync != FsyncOff {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			w.f = nil
			return err
		}
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }
