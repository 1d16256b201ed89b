package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates directed edges and produces an immutable Graph.
// Duplicate edges are merged; self-loops are kept unless DropSelfLoops is
// set. The node count may be fixed up front or inferred from the largest id
// seen.
type Builder struct {
	n          int
	fixedN     bool
	srcs, dsts []int32
	dropLoops  bool
}

// NewBuilder returns a Builder that infers the node count from edge ids.
func NewBuilder() *Builder { return &Builder{} }

// NewBuilderN returns a Builder for a graph with exactly n nodes; edges
// referencing ids outside [0,n) cause AddEdge to panic.
func NewBuilderN(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Builder{n: n, fixedN: true}
}

// DropSelfLoops configures the builder to silently discard u→u edges.
func (b *Builder) DropSelfLoops() *Builder { b.dropLoops = true; return b }

// MaxNodeID is the largest admissible node id (ids are stored as int32).
const MaxNodeID = 1<<31 - 2

// AddEdge records the directed edge u→v.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative node id (%d,%d)", u, v))
	}
	if u > MaxNodeID || v > MaxNodeID {
		panic(fmt.Sprintf("graph: node id (%d,%d) exceeds MaxNodeID %d", u, v, MaxNodeID))
	}
	if b.fixedN && (u >= b.n || v >= b.n) {
		panic(fmt.Sprintf("graph: edge (%d,%d) outside fixed node range [0,%d)", u, v, b.n))
	}
	if b.dropLoops && u == v {
		return
	}
	if !b.fixedN {
		if u >= b.n {
			b.n = u + 1
		}
		if v >= b.n {
			b.n = v + 1
		}
	}
	b.srcs = append(b.srcs, int32(u))
	b.dsts = append(b.dsts, int32(v))
}

// NumPendingEdges returns the number of edges recorded so far
// (before dedup).
func (b *Builder) NumPendingEdges() int { return len(b.srcs) }

// Build constructs the immutable Graph. The builder may be reused afterwards
// (its edge buffer is retained).
func (b *Builder) Build() *Graph {
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
	// Fill CSC using a moving cursor per destination; sources arrive in
	// ascending order because edges are sorted by (u,v), so each in-list
	// ends up sorted.
	cursor := make([]int64, n)
	copy(cursor, g.inPtr[:n])
	for _, e := range edges {
		g.inIdx[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	return g
}

// FromEdges is a convenience constructor: build a graph with n nodes from an
// explicit edge list, merging duplicates.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilderN(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
