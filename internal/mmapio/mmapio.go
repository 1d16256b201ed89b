// Package mmapio implements the TPAM zero-copy snapshot container: a
// page-aligned binary file whose sections are raw little-endian arrays laid
// out so a read-only mmap of the file can be reinterpreted directly as the
// engine's slices — no decode pass, no copy, cold start cost independent of
// graph size, and the page cache shared across every process serving the
// same snapshot.
//
// Layout ("TPAM" version 1, all fields little-endian):
//
//	offset  size  field
//	0       4     magic "TPAM"
//	4       4     format version (1)
//	8       4     section count (≤ 64)
//	12      4     reserved (0)
//	16      32c   section table, one 32-byte entry per section:
//	                +0   section id (uint32, format-defined)
//	                +4   element kind (uint32: 0 bytes, 1 i32, 2 i64, 3 f32, 4 f64)
//	                +8   payload offset (uint64, multiple of 4096)
//	                +16  payload length in bytes (uint64, multiple of the element size)
//	                +24  CRC32-C of the payload (uint32)
//	                +28  reserved (0)
//	…       4     CRC32-C of the preceding header bytes
//	…       …     zero padding to the first section offset
//	…       …     section payloads, each starting on a 4096-byte boundary
//
// Page-aligned offsets guarantee every section is at least 8-byte aligned
// inside the mapping, which is what makes the unsafe reinterpretation of the
// mapped bytes as []int64/[]float64/... well defined. On platforms without
// mmap — or on big-endian hosts, where the raw bytes are not the in-memory
// representation — Open falls back to reading the file into the heap and
// decoding each section, trading the zero-copy property for portability with
// no API difference.
//
// Every decode failure (bad magic, truncation, misaligned or out-of-bounds
// section, checksum mismatch) wraps binio.ErrBadSnapshot and returns no
// partial state. Element contents are NOT validated here: the container
// knows kinds, not meaning. Callers layering semantics on top (the TPAM
// engine snapshot in package tpa) decide how to establish trust in the
// views they adopt: the engine loader verifies every payload checksum and
// then validates the structure its kernels index by.
//
// Checksum policy: the header and section table are verified on every parse
// — they are what makes the payload views memory-safe to carve. Payload
// checksums are verified on demand (VerifySection, Verify), not at parse,
// so callers control when the O(file) pass happens; hardware CRC-32C runs
// at memory bandwidth, so even a full Verify is several times cheaper than
// a structural walk of the same bytes and an order of magnitude cheaper
// than decoding and copying them.
package mmapio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"unsafe"

	"tpa/internal/binio"
)

// ErrBadSnapshot is wrapped by every decode failure caused by the file
// itself. Test with errors.Is. It aliases binio.ErrBadSnapshot so the TPAM
// container reports corruption exactly like the write-ahead log does.
var ErrBadSnapshot = binio.ErrBadSnapshot

// Kind is the element type of a section payload.
type Kind uint32

// Section element kinds.
const (
	KindBytes Kind = iota
	KindI32
	KindI64
	KindF32
	KindF64
)

// Size returns the element size in bytes, or 0 for an unknown kind.
func (k Kind) Size() int {
	switch k {
	case KindBytes:
		return 1
	case KindI32, KindF32:
		return 4
	case KindI64, KindF64:
		return 8
	}
	return 0
}

func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindI32:
		return "i32"
	case KindI64:
		return "i64"
	case KindF32:
		return "f32"
	case KindF64:
		return "f64"
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

const (
	// Magic is the TPAM container magic ("TPAM" read little-endian).
	Magic = uint32(0x4D415054)

	version = uint32(1)

	// PageSize is the section alignment. Fixed at 4 KiB regardless of the
	// host page size: mappings are always made at a page boundary, and 4 KiB
	// alignment within the file keeps every section 8-byte aligned in any
	// mapping whose base is at least 8-byte aligned (all of them).
	PageSize = 4096

	// maxSections bounds the section count a header may claim, so a corrupt
	// count fails cleanly instead of driving a large header allocation.
	maxSections = 64

	preambleSize = 16
	entrySize    = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether raw little-endian section bytes are the
// in-memory representation on this host — the precondition for zero-copy.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// section is one parsed table entry with its resolved payload view.
type section struct {
	id      uint32
	kind    Kind
	payload []byte // slice of Snapshot.data (zero-copy) — raw LE bytes
	crc     uint32 // stored payload CRC32-C, checked by VerifySection
}

// Snapshot is an open TPAM container. Typed accessors return views that are
// either direct reinterpretations of the mapped (or heap-read) file bytes —
// the zero-copy path — or decoded heap copies on hosts where
// reinterpretation is unsound. Views alias the snapshot's backing memory:
// they are read-only and become invalid after Close. Any owner of a view
// must therefore keep the Snapshot reachable and unclosed for the view's
// lifetime.
type Snapshot struct {
	data     []byte
	mapped   bool // data is an mmap (vs a heap read of the file)
	zeroCopy bool // views reinterpret data (vs decoded copies)
	closed   bool
	sections []section
}

// Open maps the TPAM container at path. The preferred path is a read-only
// shared mmap with the kernel advised that the pages will be needed; when
// the platform cannot mmap, the file is read into the heap instead. The
// header and section table are verified here; payload checksums are left to
// VerifySection/Verify per the package checksum policy.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	s, err := newSnapshot(data, mapped)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	if mapped {
		// A dropped snapshot must not leak the mapping; Close remains the
		// deterministic path and clears the finalizer.
		runtime.SetFinalizer(s, func(s *Snapshot) { _ = s.Close() })
	}
	return s, nil
}

// Decode parses a TPAM container from an in-memory byte slice — the heap
// entry point shared by the fuzz harness and the unsupported-platform
// fallback. Views alias data on little-endian hosts; data must not be
// mutated while the snapshot is in use. Payload checksums follow the same
// on-demand policy as Open.
func Decode(data []byte) (*Snapshot, error) {
	return newSnapshot(data, false)
}

func newSnapshot(data []byte, mapped bool) (*Snapshot, error) {
	if len(data) < preambleSize+4 {
		return nil, binio.Errf("mmapio: file of %d bytes is too short for a TPAM header", len(data))
	}
	le := binary.LittleEndian
	if m := le.Uint32(data[0:]); m != Magic {
		return nil, binio.Errf("mmapio: bad magic %#x (want TPAM %#x)", m, Magic)
	}
	if v := le.Uint32(data[4:]); v != version {
		return nil, binio.Errf("mmapio: version %d unsupported (want %d)", v, version)
	}
	count := le.Uint32(data[8:])
	if count > maxSections {
		return nil, binio.Errf("mmapio: header claims %d sections (max %d)", count, maxSections)
	}
	headerSize := preambleSize + int(count)*entrySize
	if len(data) < headerSize+4 {
		return nil, binio.Errf("mmapio: truncated header (%d bytes, need %d)", len(data), headerSize+4)
	}
	if want, got := le.Uint32(data[headerSize:]), crc32.Checksum(data[:headerSize], castagnoli); want != got {
		return nil, binio.Errf("mmapio: header checksum mismatch (stored %#x, computed %#x)", want, got)
	}
	s := &Snapshot{data: data, mapped: mapped, zeroCopy: hostLittleEndian,
		sections: make([]section, 0, count)}
	seen := make(map[uint32]bool, count)
	for i := 0; i < int(count); i++ {
		e := data[preambleSize+i*entrySize:]
		id := le.Uint32(e[0:])
		kind := Kind(le.Uint32(e[4:]))
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		crc := le.Uint32(e[24:])
		if kind.Size() == 0 {
			return nil, binio.Errf("mmapio: section %d has unknown element kind %d", id, kind)
		}
		if seen[id] {
			return nil, binio.Errf("mmapio: duplicate section id %d", id)
		}
		seen[id] = true
		if off%PageSize != 0 {
			return nil, binio.Errf("mmapio: section %d offset %d not %d-aligned", id, off, PageSize)
		}
		if length%uint64(kind.Size()) != 0 {
			return nil, binio.Errf("mmapio: section %d length %d not a multiple of element size %d",
				id, length, kind.Size())
		}
		if off < uint64(headerSize) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, binio.Errf("mmapio: section %d [%d,+%d) outside the %d-byte file",
				id, off, length, len(data))
		}
		payload := data[off : off+length : off+length]
		s.sections = append(s.sections, section{id: id, kind: kind, payload: payload, crc: crc})
	}
	return s, nil
}

// VerifySection checks the stored CRC32-C of one section's payload against
// its current bytes. O(section length).
func (s *Snapshot) VerifySection(id uint32) error {
	if s.closed {
		return fmt.Errorf("mmapio: snapshot is closed")
	}
	sec, ok := s.find(id)
	if !ok {
		return binio.Errf("mmapio: section %d missing", id)
	}
	if got := crc32.Checksum(sec.payload, castagnoli); got != sec.crc {
		return binio.Errf("mmapio: section %d checksum mismatch (stored %#x, computed %#x)",
			id, sec.crc, got)
	}
	return nil
}

// Verify checks every section's payload checksum — the full O(file) scrub,
// for callers reading untrusted bytes or auditing a snapshot at rest.
func (s *Snapshot) Verify() error {
	if s.closed {
		return fmt.Errorf("mmapio: snapshot is closed")
	}
	for i := range s.sections {
		if err := s.VerifySection(s.sections[i].id); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the snapshot's backing memory. Every view previously
// returned by the typed accessors becomes invalid. Close is idempotent.
func (s *Snapshot) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.sections = nil
	data := s.data
	s.data = nil
	if s.mapped {
		runtime.SetFinalizer(s, nil)
		return unmapFile(data)
	}
	return nil
}

// Mapped reports whether the snapshot is backed by an mmap (true) or a heap
// read of the file (false).
func (s *Snapshot) Mapped() bool { return s.mapped }

// SizeBytes returns the byte length of the backing file image.
func (s *Snapshot) SizeBytes() int64 { return int64(len(s.data)) }

// Has reports whether a section with the given id is present.
func (s *Snapshot) Has(id uint32) bool {
	_, ok := s.find(id)
	return ok
}

func (s *Snapshot) find(id uint32) (*section, bool) {
	for i := range s.sections {
		if s.sections[i].id == id {
			return &s.sections[i], true
		}
	}
	return nil, false
}

func (s *Snapshot) get(id uint32, kind Kind) (*section, error) {
	if s.closed {
		return nil, fmt.Errorf("mmapio: snapshot is closed")
	}
	sec, ok := s.find(id)
	if !ok {
		return nil, binio.Errf("mmapio: section %d missing", id)
	}
	if sec.kind != kind {
		return nil, binio.Errf("mmapio: section %d holds %v, not %v", id, sec.kind, kind)
	}
	return sec, nil
}

// Bytes returns the raw payload of a KindBytes section. The view aliases
// the snapshot's backing memory.
func (s *Snapshot) Bytes(id uint32) ([]byte, error) {
	sec, err := s.get(id, KindBytes)
	if err != nil {
		return nil, err
	}
	return sec.payload, nil
}

// I64s returns the payload of a KindI64 section as []int64 — a zero-copy
// reinterpretation of the backing bytes on little-endian hosts.
func (s *Snapshot) I64s(id uint32) ([]int64, error) {
	sec, err := s.get(id, KindI64)
	if err != nil {
		return nil, err
	}
	if s.zeroCopy {
		return view[int64](sec.payload), nil
	}
	out := make([]int64, len(sec.payload)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(sec.payload[i*8:]))
	}
	return out, nil
}

// I32s returns the payload of a KindI32 section as []int32.
func (s *Snapshot) I32s(id uint32) ([]int32, error) {
	sec, err := s.get(id, KindI32)
	if err != nil {
		return nil, err
	}
	if s.zeroCopy {
		return view[int32](sec.payload), nil
	}
	out := make([]int32, len(sec.payload)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(sec.payload[i*4:]))
	}
	return out, nil
}

// F64s returns the payload of a KindF64 section as []float64.
func (s *Snapshot) F64s(id uint32) ([]float64, error) {
	sec, err := s.get(id, KindF64)
	if err != nil {
		return nil, err
	}
	if s.zeroCopy {
		return view[float64](sec.payload), nil
	}
	out := make([]float64, len(sec.payload)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec.payload[i*8:]))
	}
	return out, nil
}

// F32s returns the payload of a KindF32 section as []float32.
func (s *Snapshot) F32s(id uint32) ([]float32, error) {
	sec, err := s.get(id, KindF32)
	if err != nil {
		return nil, err
	}
	if s.zeroCopy {
		return view[float32](sec.payload), nil
	}
	out := make([]float32, len(sec.payload)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(sec.payload[i*4:]))
	}
	return out, nil
}

// view reinterprets raw little-endian bytes as a typed slice. Sections are
// page-aligned in the file, and every backing buffer (mmap base or heap
// allocation) is at least 8-byte aligned, so the element alignment holds;
// checked anyway because unsafe code must not depend on a guarantee proved
// elsewhere.
func view[T int32 | int64 | float32 | float64](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var elem T
	size := int(unsafe.Sizeof(elem))
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	// Unreachable by construction; decode a copy rather than fault.
	out := make([]T, len(b)/size)
	for i := range out {
		if size == 4 {
			storeBits(&out[i], uint64(binary.LittleEndian.Uint32(b[i*4:])))
		} else {
			storeBits(&out[i], binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
	return out
}

// storeBits writes the raw bit pattern u into *p for any supported element
// type.
func storeBits[T int32 | int64 | float32 | float64](p *T, u uint64) {
	switch size := unsafe.Sizeof(*p); size {
	case 4:
		*(*uint32)(unsafe.Pointer(p)) = uint32(u)
	default:
		*(*uint64)(unsafe.Pointer(p)) = u
	}
}
