package mmapio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Writer accumulates sections and lays them out as a TPAM container. Add
// sections with the typed appenders, then WriteTo or WriteFile once. Section
// payloads are encoded little-endian in 64 KiB chunks, so multi-GB arrays
// stream through a fixed buffer; the slices handed to the appenders are
// retained (not copied) until the write, and must not be mutated before it.
type Writer struct {
	sections []pending
}

type pending struct {
	id   uint32
	kind Kind
	n    int // element count
	// exactly one of the typed slices is set (bytes for KindBytes)
	i32s  []int32
	i64s  []int64
	f32s  []float32
	f64s  []float64
	bytes []byte
}

func (p *pending) length() uint64 { return uint64(p.n) * uint64(p.kind.Size()) }

// NewWriter returns an empty TPAM writer.
func NewWriter() *Writer { return &Writer{} }

func (w *Writer) add(p pending) {
	for _, q := range w.sections {
		if q.id == p.id {
			panic(fmt.Sprintf("mmapio: duplicate section id %d", p.id))
		}
	}
	if len(w.sections) >= maxSections {
		panic(fmt.Sprintf("mmapio: more than %d sections", maxSections))
	}
	w.sections = append(w.sections, p)
}

// I64s adds a KindI64 section.
func (w *Writer) I64s(id uint32, vals []int64) {
	w.add(pending{id: id, kind: KindI64, n: len(vals), i64s: vals})
}

// I32s adds a KindI32 section.
func (w *Writer) I32s(id uint32, vals []int32) {
	w.add(pending{id: id, kind: KindI32, n: len(vals), i32s: vals})
}

// F64s adds a KindF64 section.
func (w *Writer) F64s(id uint32, vals []float64) {
	w.add(pending{id: id, kind: KindF64, n: len(vals), f64s: vals})
}

// F32s adds a KindF32 section.
func (w *Writer) F32s(id uint32, vals []float32) {
	w.add(pending{id: id, kind: KindF32, n: len(vals), f32s: vals})
}

// Bytes adds a KindBytes section.
func (w *Writer) Bytes(id uint32, b []byte) {
	w.add(pending{id: id, kind: KindBytes, n: len(b), bytes: b})
}

// alignUp rounds n up to the next multiple of PageSize.
func alignUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}

// WriteTo writes the container to out: header with per-section CRC32-C
// table, then each payload at its page-aligned offset, zero padding between.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	headerSize := preambleSize + len(w.sections)*entrySize
	// Lay out payload offsets and compute payload CRCs in one pass each.
	offsets := make([]uint64, len(w.sections))
	crcs := make([]uint32, len(w.sections))
	cursor := alignUp(uint64(headerSize) + 4)
	for i := range w.sections {
		offsets[i] = cursor
		cursor = alignUp(cursor + w.sections[i].length())
		crcs[i] = w.sections[i].crc()
	}

	le := binary.LittleEndian
	header := make([]byte, headerSize+4)
	le.PutUint32(header[0:], Magic)
	le.PutUint32(header[4:], version)
	le.PutUint32(header[8:], uint32(len(w.sections)))
	for i, sec := range w.sections {
		e := header[preambleSize+i*entrySize:]
		le.PutUint32(e[0:], sec.id)
		le.PutUint32(e[4:], uint32(sec.kind))
		le.PutUint64(e[8:], offsets[i])
		le.PutUint64(e[16:], sec.length())
		le.PutUint32(e[24:], crcs[i])
	}
	le.PutUint32(header[headerSize:], crc32.Checksum(header[:headerSize], castagnoli))

	bw := bufio.NewWriterSize(out, 1<<20)
	if _, err := bw.Write(header); err != nil {
		return 0, err
	}
	written := uint64(len(header))
	pad := make([]byte, PageSize)
	for i, sec := range w.sections {
		if _, err := bw.Write(pad[:offsets[i]-written]); err != nil {
			return int64(written), err
		}
		written = offsets[i]
		if err := sec.encode(bw); err != nil {
			return int64(written), err
		}
		written += sec.length()
	}
	// Pad the tail to a page boundary so the whole file is page-granular.
	if end := alignUp(written); end > written {
		if _, err := bw.Write(pad[:end-written]); err != nil {
			return int64(written), err
		}
		written = end
	}
	if err := bw.Flush(); err != nil {
		return int64(written), err
	}
	return int64(written), nil
}

// WriteFile writes the container to path via a temporary file renamed into
// place, so an interrupted write never leaves a truncated snapshot behind.
// The file is fsynced before the rename and its directory after it, so
// once WriteFile returns nil the snapshot survives a crash: a caller may
// then discard what the snapshot replaces (a WAL, say).
func (w *Writer) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = w.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

const chunkBytes = 64 << 10

// crc computes the payload CRC32-C by streaming the encoded bytes through a
// fixed chunk buffer.
func (p *pending) crc() uint32 {
	var sum uint32
	p.chunks(func(b []byte) error {
		sum = crc32.Update(sum, castagnoli, b)
		return nil
	})
	return sum
}

// encode writes the payload bytes to out.
func (p *pending) encode(out io.Writer) error {
	return p.chunks(func(b []byte) error {
		_, err := out.Write(b)
		return err
	})
}

// chunks encodes the payload little-endian and feeds it to emit in bounded
// chunks.
func (p *pending) chunks(emit func([]byte) error) error {
	if p.kind == KindBytes {
		return emit(p.bytes)
	}
	le := binary.LittleEndian
	size := p.kind.Size()
	buf := make([]byte, chunkBytes)
	per := len(buf) / size
	for start := 0; start < p.n; start += per {
		end := start + per
		if end > p.n {
			end = p.n
		}
		k := 0
		for i := start; i < end; i++ {
			switch p.kind {
			case KindI32:
				le.PutUint32(buf[k:], uint32(p.i32s[i]))
			case KindI64:
				le.PutUint64(buf[k:], uint64(p.i64s[i]))
			case KindF32:
				le.PutUint32(buf[k:], math.Float32bits(p.f32s[i]))
			case KindF64:
				le.PutUint64(buf[k:], math.Float64bits(p.f64s[i]))
			}
			k += size
		}
		if err := emit(buf[:k]); err != nil {
			return err
		}
	}
	return nil
}
