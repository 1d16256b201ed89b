package core

import (
	"bufio"
	"io"
	"math"

	"tpa/internal/binio"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Index serialization: the preprocessed TPA state (configuration, S/T and
// the stranger vector), so the preprocessing phase can run once and its
// result be shipped to query servers. The graph itself is not stored; the
// loader must supply a walk over the same graph (see snapshot.go for the
// combined graph+index container).
//
// Layout ("TPA2" version, all fields little-endian):
//
//	offset  size  field
//	0       4     magic "TPA2"
//	4       4     S (uint32)
//	8       4     T (uint32)
//	12      4     preprocessing iteration count (uint32)
//	16      8     restart probability c (float64 bits)
//	24      8     tolerance ε (float64 bits)
//	32      8     n, the node count (uint64)
//	40      8n    stranger vector (float64 bits each)
//	…       4     CRC32-C of every preceding byte
//
// The predecessor format "TPA1" (identical minus the checksum footer) is
// still readable for indexes written by older builds.
//
// "TPA3" is the precision-aware successor: one uint32 precision field
// (core.Precision) follows the iteration count, and the stranger payload is
// stored in that precision (float32 bits under Float32 — half the index
// file). Float64 indexes keep writing "TPA2" so older readers stay
// compatible; "TPA3" is emitted only when there is something new to say.
//
//	offset  size  field ("TPA3" only)
//	0       4     magic "TPA3"
//	4       4     S (uint32)
//	8       4     T (uint32)
//	12      4     preprocessing iteration count (uint32)
//	16      4     precision (uint32: 0 float64, 1 float32)
//	20      8     restart probability c (float64 bits)
//	28      8     tolerance ε (float64 bits)
//	36      8     n, the node count (uint64)
//	44      …     stranger vector (8n or 4n bytes by precision)
//	…       4     CRC32-C of every preceding byte

// ErrBadSnapshot is wrapped by every index/snapshot decode failure caused
// by the stream itself; see binio.ErrBadSnapshot. Test with errors.Is.
var ErrBadSnapshot = binio.ErrBadSnapshot

const (
	indexMagicV1 = uint32(0x54504131) // legacy, no checksum footer
	indexMagic   = uint32(0x54504132) // "TPA2": float64, no precision field
	indexMagicV3 = uint32(0x54504133) // "TPA3": precision-aware payload
)

// WriteIndex serializes the preprocessed TPA state with an integrity
// footer. The stream is buffered internally. Float64 indexes use the
// "TPA2" layout older builds can read; Float32 indexes use "TPA3" with a
// float32 payload.
func (t *TPA) WriteIndex(w io.Writer) error {
	bw := bufio.NewWriter(w)
	e := binio.NewWriter(bw)
	if t.prec == Float32 {
		e.U32(indexMagicV3)
	} else {
		e.U32(indexMagic)
	}
	e.U32(uint32(t.params.S))
	e.U32(uint32(t.params.T))
	e.U32(uint32(t.preIters))
	if t.prec == Float32 {
		e.U32(uint32(t.prec))
	}
	e.U64(math.Float64bits(t.cfg.C))
	e.U64(math.Float64bits(t.cfg.Eps))
	e.U64(uint64(len(t.stranger)))
	if t.prec == Float32 {
		e.F32s(t.stranger32)
	} else {
		e.F64s(t.stranger)
	}
	if err := e.Footer(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadIndex deserializes a TPA index previously written by WriteIndex and
// binds it to the provided walk operator. Any mismatch — magic, checksum,
// invalid configuration, or a stored vector length that disagrees with the
// graph — wraps ErrBadSnapshot and returns no partial state.
//
// When r is already a *bufio.Reader it is used directly (no over-reading),
// so an index can be embedded in a larger sequential stream.
func ReadIndex(r io.Reader, w rwr.Operator) (*TPA, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	d := binio.NewReader(br)
	magic := d.U32()
	s := d.U32()
	tt := d.U32()
	preIters := d.U32()
	prec := Float64
	if magic == indexMagicV3 {
		prec = Precision(d.U32())
	}
	cBits := d.U64()
	epsBits := d.U64()
	n := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if magic != indexMagic && magic != indexMagicV1 && magic != indexMagicV3 {
		return nil, binio.Errf("core: index has bad magic %#x", magic)
	}
	if prec != Float64 && prec != Float32 {
		return nil, binio.Errf("core: index has unknown precision %d", prec)
	}
	if int(n) != w.N() {
		return nil, binio.Errf("core: index has %d nodes but graph has %d", n, w.N())
	}
	cfg := rwr.Config{C: math.Float64frombits(cBits), Eps: math.Float64frombits(epsBits)}
	if err := cfg.Validate(); err != nil {
		return nil, binio.Errf("core: index config invalid: %v", err)
	}
	params := Params{S: int(s), T: int(tt)}
	if err := params.Validate(); err != nil {
		return nil, binio.Errf("core: index params invalid: %v", err)
	}
	tp := &TPA{walk: w, cfg: cfg, params: params, prec: prec, preIters: int(preIters)}
	if prec == Float32 {
		// The float32 payload is the served state; the float64 master is
		// its widening (the full-precision original is not in the file).
		tp.stranger32 = sparse.NewVector32(int(n))
		d.F32s(tp.stranger32)
		tp.stranger = sparse.Convert(tp.stranger32, sparse.NewVector(int(n)))
	} else {
		tp.stranger = sparse.NewVector(int(n))
		d.F64s(tp.stranger)
	}
	if magic != indexMagicV1 {
		if err := d.Footer(); err != nil {
			return nil, err
		}
	} else if err := d.Err(); err != nil {
		return nil, err
	}
	tp.applyPrecision()
	return tp, nil
}
