package mmapio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildTestContainer returns an encoded container with one section of every
// kind.
func buildTestContainer(t *testing.T) ([]byte, map[string]interface{}) {
	t.Helper()
	w := NewWriter()
	i64s := []int64{0, 3, 5, 9, 1 << 40}
	i32s := []int32{7, -1, 42, 1 << 30}
	f64s := []float64{0.25, -3.5, 1e-9}
	f32s := []float32{1.5, -0.125}
	raw := []byte("meta-payload")
	w.I64s(1, i64s)
	w.I32s(2, i32s)
	w.F64s(3, f64s)
	w.F32s(4, f32s)
	w.Bytes(5, raw)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes(), map[string]interface{}{
		"i64s": i64s, "i32s": i32s, "f64s": f64s, "f32s": f32s, "raw": raw,
	}
}

func checkViews(t *testing.T, s *Snapshot, want map[string]interface{}) {
	t.Helper()
	i64s, err := s.I64s(1)
	if err != nil {
		t.Fatalf("I64s: %v", err)
	}
	i32s, err := s.I32s(2)
	if err != nil {
		t.Fatalf("I32s: %v", err)
	}
	f64s, err := s.F64s(3)
	if err != nil {
		t.Fatalf("F64s: %v", err)
	}
	f32s, err := s.F32s(4)
	if err != nil {
		t.Fatalf("F32s: %v", err)
	}
	raw, err := s.Bytes(5)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	for i, v := range want["i64s"].([]int64) {
		if i64s[i] != v {
			t.Fatalf("i64s[%d] = %d, want %d", i, i64s[i], v)
		}
	}
	for i, v := range want["i32s"].([]int32) {
		if i32s[i] != v {
			t.Fatalf("i32s[%d] = %d, want %d", i, i32s[i], v)
		}
	}
	for i, v := range want["f64s"].([]float64) {
		if f64s[i] != v {
			t.Fatalf("f64s[%d] = %v, want %v", i, f64s[i], v)
		}
	}
	for i, v := range want["f32s"].([]float32) {
		if f32s[i] != v {
			t.Fatalf("f32s[%d] = %v, want %v", i, f32s[i], v)
		}
	}
	if string(raw) != string(want["raw"].([]byte)) {
		t.Fatalf("raw = %q, want %q", raw, want["raw"])
	}
}

func TestRoundTripDecode(t *testing.T) {
	data, want := buildTestContainer(t)
	s, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	defer s.Close()
	if s.Mapped() {
		t.Fatal("Decode must not report a mapping")
	}
	checkViews(t, s, want)
	if !s.Has(3) || s.Has(99) {
		t.Fatal("Has is wrong")
	}
	if s.SizeBytes() != int64(len(data)) {
		t.Fatalf("SizeBytes = %d, want %d", s.SizeBytes(), len(data))
	}
}

func TestRoundTripOpen(t *testing.T) {
	data, want := buildTestContainer(t)
	path := filepath.Join(t.TempDir(), "t.tpam")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	checkViews(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.I64s(1); err == nil {
		t.Fatal("view after Close must fail")
	}
}

// TestRawBytesAreTheEncoding: on a little-endian host the writer emits a
// section's own memory, which must be byte for byte the chunked
// little-endian encoding other hosts write, across chunk boundaries and for
// an empty section.
func TestRawBytesAreTheEncoding(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("raw section bytes are written on little-endian hosts only")
	}
	const n = 3*chunkBytes/8 + 5
	i64s, i32s, f64s, f32s := make([]int64, n), make([]int32, n), make([]float64, n), make([]float32, n)
	for i := range i64s {
		i64s[i] = int64(i)*0x0102030405 - 7
		i32s[i] = int32(i)*0x010203 - 7
		f64s[i] = float64(i) / 3
		f32s[i] = float32(i) / 7
	}
	for _, p := range []pending{
		{kind: KindI64, n: n, i64s: i64s},
		{kind: KindI32, n: n, i32s: i32s},
		{kind: KindF64, n: n, f64s: f64s},
		{kind: KindF32, n: n, f32s: f32s},
		{kind: KindF64},
	} {
		var enc bytes.Buffer
		if err := p.encodeChunks(func(b []byte) error { enc.Write(b); return nil }); err != nil {
			t.Fatal(err)
		}
		if raw := p.raw(); !bytes.Equal(raw, enc.Bytes()) || uint64(len(raw)) != p.length() {
			t.Fatalf("kind %v, %d elements: raw bytes (%d) differ from the encoding (%d)", p.kind, p.n, len(raw), enc.Len())
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	data, want := buildTestContainer(t)
	_ = data
	w := NewWriter()
	w.I64s(1, want["i64s"].([]int64))
	w.I32s(2, want["i32s"].([]int32))
	w.F64s(3, want["f64s"].([]float64))
	w.F32s(4, want["f32s"].([]float32))
	w.Bytes(5, want["raw"].([]byte))
	path := filepath.Join(t.TempDir(), "w.tpam")
	if err := w.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temporary file left behind")
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	checkViews(t, s, want)
}

func TestSectionAlignment(t *testing.T) {
	data, _ := buildTestContainer(t)
	// Offsets are validated during decode; here assert the file itself is
	// page-granular, which the writer promises.
	if int64(len(data))%PageSize != 0 {
		t.Fatalf("file size %d not a multiple of %d", len(data), PageSize)
	}
}

func TestKindMismatchAndMissing(t *testing.T) {
	data, _ := buildTestContainer(t)
	s, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.F64s(1); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("kind mismatch: got %v, want ErrBadSnapshot", err)
	}
	if _, err := s.I32s(77); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("missing section: got %v, want ErrBadSnapshot", err)
	}
}

// TestCorruptionMatrix flips, truncates and rewrites bytes across the file
// and demands the typed error every time — the same contract the fuzz
// target generalizes.
func TestCorruptionMatrix(t *testing.T) {
	data, _ := buildTestContainer(t)
	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		mutated := mutate(append([]byte(nil), data...))
		s, err := Decode(mutated)
		if err == nil {
			s.Close()
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: error %v does not wrap ErrBadSnapshot", name, err)
		}
	}
	check("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("bad version", func(b []byte) []byte { b[4] = 99; return b })
	check("absurd section count", func(b []byte) []byte { b[8] = 0xff; return b })
	check("header bit flip", func(b []byte) []byte { b[preambleSize+3] ^= 0x10; return b })
	check("truncated header", func(b []byte) []byte { return b[:preambleSize+2] })
	check("truncated payload", func(b []byte) []byte { return b[:len(b)-PageSize-1] })
	check("empty", func(b []byte) []byte { return b[:0] })
	// A payload bit flip passes the header parse (payload checksums are
	// on-demand) but must be caught by the scrub — and by VerifySection of
	// the damaged section, while untouched sections still verify.
	flipped := append([]byte(nil), data...)
	flipped[PageSize+3] ^= 0x01
	s, err := Decode(flipped)
	if err != nil {
		t.Fatalf("payload flip rejected at parse (checksums should be on-demand): %v", err)
	}
	defer s.Close()
	if err := s.Verify(); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Verify on flipped payload: got %v, want ErrBadSnapshot", err)
	}
	first := s.sections[0].id
	if err := s.VerifySection(first); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("VerifySection(%d) on flipped payload: got %v, want ErrBadSnapshot", first, err)
	}
	for _, sec := range s.sections[1:] {
		if err := s.VerifySection(sec.id); err != nil {
			t.Fatalf("VerifySection(%d) on clean section: %v", sec.id, err)
		}
	}
	// Misaligned section offset with a recomputed header CRC: alignment is a
	// validated property, not just a side effect of the writer.
	check("misaligned offset", func(b []byte) []byte {
		reencodeEntryOffset(b, 0, PageSize+8)
		return b
	})
	// Out-of-bounds section with a valid header CRC.
	check("out-of-bounds offset", func(b []byte) []byte {
		reencodeEntryOffset(b, 0, uint64(alignUp(uint64(len(b)))+PageSize))
		return b
	})
}

// reencodeEntryOffset rewrites table entry i's offset and fixes the header
// CRC so the corruption under test is reached (not masked by the checksum).
func reencodeEntryOffset(b []byte, i int, off uint64) {
	le := leHelper{}
	e := b[preambleSize+i*entrySize:]
	le.putU64(e[8:], off)
	count := le.u32(b[8:])
	headerSize := preambleSize + int(count)*entrySize
	le.putU32(b[headerSize:], crcOf(b[:headerSize]))
}

type leHelper struct{}

func (leHelper) u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (leHelper) putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func (l leHelper) putU64(b []byte, v uint64) {
	l.putU32(b, uint32(v))
	l.putU32(b[4:], uint32(v>>32))
}

func crcOf(b []byte) uint32 {
	var p pending
	p.kind = KindBytes
	p.bytes = b
	p.n = len(b)
	return p.crc()
}
