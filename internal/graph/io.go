package graph

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ReadEdgeList parses an edge list, one directed edge per line, as KONECT
// and SNAP dump them. The grammar, where ws is a whitespace character as
// unicode.IsSpace defines it (ASCII space, \t, \n, \v, \f and \r, or a
// UTF-8 encoded U+0085, U+00A0 or other Unicode space) and any is any byte
// but \n:
//
//	file    = { line "\n" } [ line ]
//	line    = { ws } [ comment | edge ]
//	comment = ( "#" | "%" ) { any }
//	edge    = id ws { ws } id [ ws { any } ]
//	id      = [ "+" | "-" ] digit { digit }
//
// An id is a decimal integer in [0, MaxNodeID]: "+5", "-0" and "007" are
// 5, 0 and 7. Fields after the second are ignored, and a line may be of
// any length. Ids are used as-is, so the node count is 1 + the largest id
// seen. An error names the line it was found on, counting from 1.
//
// A list may name at most max(2²⁰, 16 × its edge lines) nodes: the graph
// costs 24 bytes of pointer arrays per node however few edges name it, so
// without the cap the 10-byte line "99999999 9" would allocate 2.4 GB. A
// list past the cap fails, naming its largest id, before anything is built;
// renumber its ids densely.
//
// This is the language of strings.Fields and strconv.Atoi applied to each
// line, but the parser works on the bytes of a bufio.Reader and allocates
// nothing per line: a line in WriteEdgeList's form is summed in one pass,
// any other is split at whitespace with its ids summed in place, and only
// an id that is not a sign and 1 to 18 digits goes to strconv.Atoi, whose
// error the message carries.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	br := bufio.NewReaderSize(r, 1<<16)
	var long []byte // a line longer than br's buffer, reassembled
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if perr := b.addLine(line, lineNo); perr != nil {
			return nil, perr
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge list: %w", err)
		}
	}
	if limit := max(nodeFloor, nodesPerEdge*len(b.srcs)); b.n > limit {
		return nil, fmt.Errorf("graph: node id %d makes %d nodes, more than the %d an edge list of %d edges may name (max(%d, %d per edge)): renumber the ids densely",
			b.n-1, b.n, limit, len(b.srcs), nodeFloor, nodesPerEdge)
	}
	return b.Build(), nil
}

// nodeFloor and nodesPerEdge set ReadEdgeList's node cap.
const (
	nodeFloor    = 1 << 20
	nodesPerEdge = 16
)

// addLine parses one line of ReadEdgeList's grammar (its \n included, if
// any) and records its edge. A line in WriteEdgeList's form, two ids of at
// most 10 digits with one tab or space between them, is summed in one pass;
// any other line goes through addFields.
func (b *Builder) addLine(line []byte, lineNo int) error {
	u, i := leadingDigits(line, 0)
	if i > 0 && i < len(line) && (line[i] == '\t' || line[i] == ' ') {
		v, j := leadingDigits(line, i+1)
		if j > i+1 && (j == len(line) || line[j] == '\n') && u <= MaxNodeID && v <= MaxNodeID {
			b.add(u, v)
			return nil
		}
	}
	return b.addFields(line, lineNo)
}

// leadingDigits sums the decimal digits at line[i:], at most 10 of them,
// and returns their value and the index after the last.
func leadingDigits(line []byte, i int) (v, end int) {
	for end = i; end < len(line) && end-i < 10; end++ {
		d := line[end] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int(d)
	}
	return v, end
}

// addFields is addLine for any line: it splits the line at whitespace and
// reads the first two fields as strconv.Atoi would.
func (b *Builder) addFields(line []byte, lineNo int) error {
	s0 := skip(line, 0, true)
	if s0 == len(line) || line[s0] == '#' || line[s0] == '%' {
		return nil
	}
	u, e0, err := scanID(line, s0)
	s1 := skip(line, e0, true)
	v, e1, verr := scanID(line, s1)
	if s1 == e1 {
		return fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, bytes.TrimSpace(line))
	}
	if err != nil {
		return fmt.Errorf("graph: line %d: bad source id %q: %v", lineNo, line[s0:e0], err)
	}
	if verr != nil {
		return fmt.Errorf("graph: line %d: bad destination id %q: %v", lineNo, line[s1:e1], verr)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: line %d: negative node id", lineNo)
	}
	if u > MaxNodeID || v > MaxNodeID {
		return fmt.Errorf("graph: line %d: node id exceeds %d", lineNo, MaxNodeID)
	}
	b.add(u, v)
	return nil
}

// add records the edge u→v of a parsed line, its ids already checked, on
// ReadEdgeList's builder (node count inferred, self-loops kept).
func (b *Builder) add(u, v int) {
	b.n = max(b.n, u+1, v+1)
	b.srcs = append(b.srcs, int32(u))
	b.dsts = append(b.dsts, int32(v))
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the first index at or after i where line stops being
// whitespace (space true) or non-whitespace (space false), decoding UTF-8
// only at bytes outside ASCII, as strings.Fields does.
func skip(line []byte, i int, space bool) int {
	for i < len(line) {
		c := line[i]
		is, size := asciiSpace[c], 1
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			is = unicode.IsSpace(r)
		}
		if is != space {
			break
		}
		i += size
	}
	return i
}

// scanID reads the field that starts at line[i] and returns where it ends
// and its value, as strconv.Atoi gives them. The digits are summed as the
// field is scanned; only a field that is not an optional sign and 1 to 18
// digits (which cannot overflow an int64) is handed to strconv.Atoi.
func scanID(line []byte, i int) (v, end int, err error) {
	start := i
	if i < len(line) && (line[i] == '+' || line[i] == '-') {
		i++
	}
	digits := i
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int(d)
	}
	if end = skip(line, i, false); end != i || i == digits || i-digits > 18 {
		v, err = strconv.Atoi(string(line[start:end]))
		return v, end, err
	}
	if line[start] == '-' {
		v = -v
	}
	return v, end, nil
}

// WriteEdgeList writes the graph as a "src\tdst" edge list with a small
// header comment. It is the inverse of ReadEdgeList up to duplicate merging.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			line := strconv.AppendInt(bw.AvailableBuffer(), int64(u), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(v), 10)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadFile reads an edge list from path; a ".gz" suffix enables transparent
// gzip decompression.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("graph: opening gzip %s: %w", path, err)
		}
		defer zr.Close()
		r = zr
	}
	return ReadEdgeList(r)
}

// SaveFile writes the graph to path as an edge list; a ".gz" suffix enables
// gzip compression.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := WriteEdgeList(zw, g); err != nil {
			return err
		}
		return zw.Close()
	}
	return WriteEdgeList(f, g)
}
