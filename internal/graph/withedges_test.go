package graph_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
)

// checkWithEdges is the WithEdges oracle: the batch applied by WithEdges and
// by NewDelta → Apply → Compact must give identical CSR and CSC arrays, the
// same added/removed counts and the same error, and the effective edge lists
// must be what they claim.
func checkWithEdges(t *testing.T, g *graph.Graph, adds, removes [][2]int) {
	t.Helper()
	d := graph.NewDelta(g)
	wantAdded, wantRemoved, wantErr := d.Apply(adds, removes)
	next, added, removed, err := g.WithEdges(adds, removes)
	if wantErr != nil || err != nil {
		if !errors.Is(err, graph.ErrBadEdge) || !errors.Is(wantErr, graph.ErrBadEdge) {
			t.Fatalf("WithEdges error %v, Delta error %v: want both ErrBadEdge", err, wantErr)
		}
		if next != nil || added != nil || removed != nil {
			t.Fatal("WithEdges returned a partial result beside its error")
		}
		return
	}
	if len(added) != wantAdded || len(removed) != wantRemoved {
		t.Fatalf("WithEdges added/removed %d/%d, Delta %d/%d", len(added), len(removed), wantAdded, wantRemoved)
	}
	if wantAdded+wantRemoved == 0 && next != g {
		t.Fatal("a no-op batch did not return the receiver")
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("WithEdges built an invalid graph: %v", err)
	}
	want := d.Compact()
	wp, wi := want.RawCSR()
	gp, gi := next.RawCSR()
	if !slices.Equal(wp, gp) || !slices.Equal(wi, gi) {
		t.Fatal("CSR arrays differ from Delta.Compact's")
	}
	wp, wi = want.RawCSC()
	gp, gi = next.RawCSC()
	if !slices.Equal(wp, gp) || !slices.Equal(wi, gi) {
		t.Fatal("CSC arrays differ from Delta.Compact's")
	}
	less := func(a, b [2]int) bool { return a[0] < b[0] || a[0] == b[0] && a[1] < b[1] }
	for _, list := range [][][2]int{added, removed} {
		for i := 1; i < len(list); i++ {
			if !less(list[i-1], list[i]) {
				t.Fatalf("effective edges not strictly sorted: %v", list)
			}
		}
	}
	for _, e := range added {
		if !slices.Contains(adds, e) || g.HasEdge(e[0], e[1]) {
			t.Fatalf("added edge %v was not an add the graph lacked", e)
		}
	}
	for _, e := range removed {
		if !slices.Contains(removes, e) || !g.HasEdge(e[0], e[1]) && !slices.Contains(added, e) {
			t.Fatalf("removed edge %v was not a remove present after the adds", e)
		}
		if next.HasEdge(e[0], e[1]) {
			t.Fatalf("removed edge %v survived", e)
		}
	}
}

// randomGraph draws a graph over n nodes where only some rows have out-edges
// (the rest dangle) and self-loops are common.
func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		if rng.Intn(4) == 0 {
			continue // dangling row
		}
		for k := rng.Intn(6); k > 0; k-- {
			v := rng.Intn(n)
			if rng.Intn(5) == 0 {
				v = u
			}
			edges = append(edges, [2]int{u, v})
		}
	}
	return graph.FromEdges(n, edges)
}

// randomBatch draws adds and removes mixing fresh edges, present edges,
// duplicates, and edges named by both lists.
func randomBatch(rng *rand.Rand, g *graph.Graph) (adds, removes [][2]int) {
	n := g.NumNodes()
	present := func() [2]int {
		for tries := 0; tries < 20; tries++ {
			u := rng.Intn(n)
			if ns := g.OutNeighbors(u); len(ns) > 0 {
				return [2]int{u, int(ns[rng.Intn(len(ns))])}
			}
		}
		return [2]int{rng.Intn(n), rng.Intn(n)}
	}
	for k := rng.Intn(12); k > 0; k-- {
		switch rng.Intn(5) {
		case 0:
			adds = append(adds, present()) // add of a present edge
		case 1:
			removes = append(removes, present())
		case 2:
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			adds, removes = append(adds, e), append(removes, e) // both lists
		case 3:
			removes = append(removes, [2]int{rng.Intn(n), rng.Intn(n)}) // often absent
		default:
			adds = append(adds, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		if len(adds) > 0 && rng.Intn(4) == 0 {
			adds = append(adds, adds[rng.Intn(len(adds))]) // duplicate
		}
		if len(removes) > 0 && rng.Intn(4) == 0 {
			removes = append(removes, removes[rng.Intn(len(removes))])
		}
	}
	return adds, removes
}

func TestWithEdgesMatchesDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng, 1+rng.Intn(40))
		adds, removes := randomBatch(rng, g)
		checkWithEdges(t, g, adds, removes)
		// Chain: the next batch lands on the result.
		if next, _, _, err := g.WithEdges(adds, removes); err == nil {
			adds, removes = randomBatch(rng, next)
			checkWithEdges(t, next, adds, removes)
		}
	}
}

func TestWithEdgesCases(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {3, 3}})
	cases := []struct {
		name           string
		adds, removes  [][2]int
		added, removed int
	}{
		{"empty", nil, nil, 0, 0},
		{"all no-ops", [][2]int{{0, 1}, {3, 3}}, [][2]int{{4, 0}, {2, 2}}, 0, 0},
		{"duplicates", [][2]int{{2, 4}, {2, 4}, {2, 4}}, [][2]int{{0, 1}, {0, 1}}, 1, 1},
		{"added then removed", [][2]int{{4, 4}}, [][2]int{{4, 4}}, 1, 1},
		{"present edge added and removed", [][2]int{{1, 2}}, [][2]int{{1, 2}}, 0, 1},
		{"row emptied", nil, [][2]int{{3, 0}, {3, 3}}, 0, 2},
		{"dangling row filled", [][2]int{{4, 0}, {4, 1}, {4, 4}}, nil, 3, 0},
		{"first and last rows", [][2]int{{0, 0}, {4, 3}}, [][2]int{{0, 2}}, 2, 1},
		{"out-of-range target", [][2]int{{0, 3}, {1, 5}}, nil, 0, 0},
		{"negative source", nil, [][2]int{{0, 1}, {-1, 2}}, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkWithEdges(t, g, c.adds, c.removes)
			_, added, removed, _ := g.WithEdges(c.adds, c.removes)
			if len(added) != c.added || len(removed) != c.removed {
				t.Errorf("added/removed %d/%d, want %d/%d", len(added), len(removed), c.added, c.removed)
			}
		})
	}
	if _, _, _, err := graph.FromEdges(0, nil).WithEdges([][2]int{{0, 0}}, nil); !errors.Is(err, graph.ErrBadEdge) {
		t.Errorf("edge on an empty graph: %v, want ErrBadEdge", err)
	}
}

// FuzzWithEdges drives arbitrary graphs and batches through the WithEdges
// oracle. data encodes the graph as byte pairs; batch encodes (op, u, v)
// triples, an odd op adding and an even one removing, where the byte 255
// names the out-of-range id n.
func FuzzWithEdges(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 0, 2, 1, 2, 3, 0, 3, 3}, []byte{1, 2, 4, 1, 2, 4, 0, 0, 1, 1, 4, 4, 0, 4, 4})
	f.Add(uint8(3), []byte{0, 0, 1, 1}, []byte{1, 0, 255})
	f.Add(uint8(1), []byte{}, []byte{1, 0, 0, 0, 0, 0})
	f.Add(uint8(8), []byte{7, 6, 6, 5, 5, 4, 0, 7}, []byte{0, 7, 6, 1, 7, 6, 1, 2, 3, 0, 2, 3})
	f.Fuzz(func(t *testing.T, n uint8, data, batch []byte) {
		nodes := int(n%64) + 1
		var edges [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(data[i]) % nodes, int(data[i+1]) % nodes})
		}
		g := graph.FromEdges(nodes, edges)
		id := func(b byte) int {
			if b == 255 {
				return nodes
			}
			return int(b) % nodes
		}
		var adds, removes [][2]int
		for i := 0; i+2 < len(batch); i += 3 {
			e := [2]int{id(batch[i+1]), id(batch[i+2])}
			if batch[i]%2 == 1 {
				adds = append(adds, e)
			} else {
				removes = append(removes, e)
			}
		}
		checkWithEdges(t, g, adds, removes)
	})
}

// churnBatch is the edge-churn benchmark's write on a 10k-node SBM: 500 adds
// drawn from a second draw of the model and 500 removes of present edges.
func churnBatch(b *testing.B) (*graph.Graph, [][2]int, [][2]int) {
	sbm := func(seed int64) *graph.Graph {
		return gen.SBM(gen.SBMConfig{Nodes: 10000, Communities: 5, AvgOutDeg: 10, PIn: 0.9, Seed: seed})
	}
	g, pool := sbm(11), sbm(12)
	rng := rand.New(rand.NewSource(13))
	pick := func(from *graph.Graph) [2]int {
		for {
			u := rng.Intn(from.NumNodes())
			if ns := from.OutNeighbors(u); len(ns) > 0 {
				return [2]int{u, int(ns[rng.Intn(len(ns))])}
			}
		}
	}
	var adds, removes [][2]int
	for i := 0; i < 500; i++ {
		adds = append(adds, pick(pool))
		removes = append(removes, pick(g))
	}
	return g, adds, removes
}

// BenchmarkWithEdges is the serving write's graph rebuild.
func BenchmarkWithEdges(b *testing.B) {
	g, adds, removes := churnBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := g.WithEdges(adds, removes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaCompact is the same rebuild through the overlay, the
// baseline BenchmarkWithEdges replaces.
func BenchmarkDeltaCompact(b *testing.B) {
	g, adds, removes := churnBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.NewDelta(g)
		if _, _, err := d.Apply(adds, removes); err != nil {
			b.Fatal(err)
		}
		_ = d.Compact()
	}
}
