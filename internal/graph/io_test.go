package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1
1 2

2	0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(2, 0) {
		t.Fatal("missing tab-separated edge")
	}
}

// TestReadEdgeListErrors is the error table: each class of bad line fails
// the parse with a message naming its line, counted from 1 across blank
// lines, comments, \r\n endings and a line longer than the reader's
// buffer.
func TestReadEdgeListErrors(t *testing.T) {
	long := "0 1 " + strings.Repeat("w", 200_000) + "\n"
	for _, tc := range []struct {
		in, want string
	}{
		{"0 1\n# c\n\n5\n", "line 4: want at least 2 fields"},
		{"0\n", "line 1: want at least 2 fields"},
		{"0 1\r\n1 2\r\nx 3\r\n", `line 3: bad source id "x": strconv.Atoi: parsing "x": invalid syntax`},
		{"0 1\n\n2 y\n", `line 3: bad destination id "y"`},
		{"0 1\n  % c\n+ 2\n", `line 3: bad source id "+"`},
		{"0 1\n1 -2\n", "line 2: negative node id"},
		{"0 1\n\n\n2147483647 0\n", "line 4: node id exceeds 2147483646"},
		{"0 1\n99999999999999999999 0\n", `line 2: bad source id "99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"0 1\n1 -99999999999999999999\n", "line 2: bad destination id"},
		{long + long + "7\n", "line 3: want at least 2 fields"},
	} {
		_, err := ReadEdgeList(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %.40q: error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

// TestReadEdgeListLongLine: a line may be longer than the reader's buffer
// (and than the 1 MiB the line scanner used to allow).
func TestReadEdgeListLongLine(t *testing.T) {
	in := "3 1 " + strings.Repeat("w", 3<<20) + "\n1\t2"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 || !g.HasEdge(3, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges %d != %d", g2.NumEdges(), g.NumEdges())
	}
	// The dangling node 4 has no edges, so its id may not round-trip;
	// node count can legitimately shrink. All edges must survive.
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g2.HasEdge(u, int(v)) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	g := diamond()
	for _, name := range []string{"g.tsv", "g.tsv.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d != %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path/graph.tsv"); err == nil {
		t.Fatal("expected error")
	}
}

// FuzzReadEdgeList is a differential test against the line-scanner parser
// and the sort-based Build that ReadEdgeList replaced: on every input both
// fail with the same message, or both succeed with identical arrays that
// pass Validate. The two accept the same language, Unicode whitespace
// included. The one widening is the line length: the reference rejects a
// line of 1 MiB or more, where ReadEdgeList reads on.
//
// Ids are used as-is, so a valid id of a few billion makes both parsers
// allocate its pointer arrays; inputs naming an id above 99,999 that could
// parse (1e5 ≤ id ≤ MaxNodeID) are skipped to keep each run small. Larger
// digit runs stay in: they fail before anything is built.
func FuzzReadEdgeList(f *testing.F) {
	for _, in := range []string{
		"0 1\n1 2\n",
		"# comment\n5 5\n",
		"",
		"a b\n",
		"1\n",
		"-1 2\n",
		"999999999999999999999 1\n",
		"+5 -0\n007 3\n",
		"1 2 w\r\n2 1\r\n",
		"1 2\n \t\n\v\f\r\n3 0",
		"  # c\n\t% c\n1 0\n",
		"00000000000000000000001 2\n",
		"123456789012345678 1\n",
		"3 1\n3 0\n3 1\n0 2\n2 2\n",
		"\u00a01\u00852\n\u00a0# c\n1 2\u00a0x\n",
		"\u30001 2\n\u2028\n",
		"\xc2 1 2\n1\xa0 2\n",
		"1 2\x00\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if namesBigID(in) {
			t.Skip("an id in [1e5, MaxNodeID] would allocate its pointer arrays")
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		ref, refErr := referenceReadEdgeList(strings.NewReader(in))
		if errors.Is(refErr, bufio.ErrTooLong) {
			ref, refErr = nil, nil
		} else if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		if ref != nil && !sameArrays(g, ref) {
			t.Fatalf("graph differs from the reference: n %d/%d, m %d/%d", g.n, ref.n, g.NumEdges(), ref.NumEdges())
		}
	})
}

// namesBigID reports whether in holds a run of decimal digits whose value
// lies in [1e5, MaxNodeID].
func namesBigID(in string) bool {
	for i := 0; i < len(in); {
		j := i
		for j < len(in) && in[j] >= '0' && in[j] <= '9' {
			j++
		}
		if j == i {
			i++
			continue
		}
		run := strings.TrimLeft(in[i:j], "0")
		if v, err := strconv.Atoi(run); len(run) >= 6 && err == nil && v <= MaxNodeID {
			return true
		}
		i = j
	}
	return false
}

// sameArrays reports whether g and h have the same node count and CSR and
// CSC arrays.
func sameArrays(g, h *Graph) bool {
	return g.n == h.n && slices.Equal(g.outPtr, h.outPtr) && slices.Equal(g.outIdx, h.outIdx) &&
		slices.Equal(g.inPtr, h.inPtr) && slices.Equal(g.inIdx, h.inIdx)
}

// TestBuildMatchesReference checks the counting-sort Build against the
// sort-based reference on builders with duplicates, unsorted rows,
// self-loops, isolated nodes and no edges at all.
func TestBuildMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges [][2]int
	}{
		{0, nil},
		{3, nil},
		{5, [][2]int{{4, 1}, {4, 0}, {4, 1}, {0, 4}, {2, 2}, {4, 0}, {0, 4}}},
		{4, [][2]int{{3, 3}, {3, 3}, {3, 3}}},
	} {
		b := NewBuilderN(tc.n)
		for _, e := range tc.edges {
			b.AddEdge(e[0], e[1])
		}
		if g, ref := b.Build(), referenceBuild(b); !sameArrays(g, ref) || g.Validate() != nil {
			t.Errorf("n=%d %v: Build differs from the reference", tc.n, tc.edges)
		}
	}
}

// referenceReadEdgeList is the line-scanner parser ReadEdgeList replaced,
// kept as the fuzz oracle: strings.Fields and strconv.Atoi on each line,
// and the sort-based referenceBuild.
func referenceReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination id %q: %v", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		if u > MaxNodeID || v > MaxNodeID {
			return nil, fmt.Errorf("graph: line %d: node id exceeds %d", lineNo, MaxNodeID)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return referenceBuild(b), nil
}

// referenceBuild is the Build that the counting sort replaced: every edge
// copied into a pair, the pairs sorted by (u,v) and deduplicated, the CSC
// filled by the cursor pass.
func referenceBuild(b *Builder) *Graph {
	n := b.n
	type pair struct{ u, v int32 }
	edges := make([]pair, len(b.srcs))
	for i := range b.srcs {
		edges[i] = pair{b.srcs[i], b.dsts[i]}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	w := 0
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		edges[w] = e
		w++
	}
	edges = edges[:w]
	g := &Graph{
		n:      n,
		outPtr: make([]int64, n+1),
		outIdx: make([]int32, len(edges)),
		inPtr:  make([]int64, n+1),
		inIdx:  make([]int32, len(edges)),
	}
	for i, e := range edges {
		g.outIdx[i] = e.v
		g.outPtr[e.u+1]++
		g.inPtr[e.v+1]++
	}
	for i := 0; i < n; i++ {
		g.outPtr[i+1] += g.outPtr[i]
		g.inPtr[i+1] += g.inPtr[i]
	}
	cursor := make([]int64, n)
	copy(cursor, g.inPtr[:n])
	for _, e := range edges {
		g.inIdx[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	return g
}

func TestReadEdgeListRejectsHugeIDs(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("2147483647 1\n")); err == nil {
		t.Error("id above MaxNodeID accepted")
	}
}

// TestReadEdgeListNodeCap: a list naming more than max(2²⁰, 16 × its edge
// lines) nodes fails with its largest id named, before the pointer arrays
// of a few billion nodes are allocated; a list at the cap parses.
func TestReadEdgeListNodeCap(t *testing.T) {
	for _, tc := range []struct{ in, id string }{
		{"99999999 9", "99999999"},
		{"# sparse\n0 1\n2000000000 0\n", "2000000000"},
		{"1048576 0\n", "1048576"},
	} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = ReadEdgeList(strings.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "node id "+tc.id+" ") {
			t.Errorf("input %q: error %v, want one naming id %s", tc.in, err, tc.id)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("input %q: allocated %d B before failing, want under 1 MiB", tc.in, alloc)
		}
	}
	// At the floor, and at 16 nodes per edge line above it.
	var many strings.Builder
	const m = 70_000
	for i := 0; i < m-1; i++ {
		fmt.Fprintf(&many, "%d %d\n", i, i+1)
	}
	for _, tc := range []struct {
		in    string
		nodes int
	}{
		{"1048575 0\n", 1 << 20},
		{many.String() + fmt.Sprintf("%d 0\n", 16*m-1), 16 * m},
	} {
		g, err := ReadEdgeList(strings.NewReader(tc.in))
		if err != nil || g.NumNodes() != tc.nodes {
			t.Errorf("list at the cap of %d nodes: %v", tc.nodes, err)
		}
	}
	if _, err := ReadEdgeList(strings.NewReader(many.String() + fmt.Sprintf("%d 0\n", 16*m))); err == nil {
		t.Errorf("list one node past the cap of %d parsed", 16*m)
	}
}
