package graph

import (
	"fmt"
	"slices"
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
//
// The CSR is a counting sort by source: one pass counts each row's length,
// a prefix sum turns the counts into row pointers, and a second pass drops
// every destination into its row through a per-row cursor. A row the input
// already listed in order is not sorted again; the rest are sorted in
// place, and duplicates are merged as the rows are compacted to the front.
// The CSC is filled from the CSR by the same cursor pass over destinations;
// sources arrive in ascending order, so each in-list ends up sorted.
func (b *Builder) Build() *Graph {
	n := b.n
	outPtr := make([]int64, n+1)
	for _, u := range b.srcs {
		outPtr[u+1]++
	}
	for u := 0; u < n; u++ {
		outPtr[u+1] += outPtr[u]
	}
	outIdx := make([]int32, len(b.srcs))
	cursor := make([]int64, n)
	copy(cursor, outPtr[:n])
	for i, u := range b.srcs {
		outIdx[cursor[u]] = b.dsts[i]
		cursor[u]++
	}
	var w int64
	for u := 0; u < n; u++ {
		row := outIdx[outPtr[u]:outPtr[u+1]]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		outPtr[u] = w
		for _, v := range row {
			if w == outPtr[u] || v != outIdx[w-1] {
				outIdx[w] = v
				w++
			}
		}
	}
	outPtr[n] = w
	if w < int64(len(outIdx)) {
		outIdx = slices.Clone(outIdx[:w])
	}
	g := &Graph{n: n, outPtr: outPtr, outIdx: outIdx, inPtr: make([]int64, n+1), inIdx: make([]int32, w)}
	for _, v := range outIdx {
		g.inPtr[v+1]++
	}
	for i := 0; i < n; i++ {
		g.inPtr[i+1] += g.inPtr[i]
	}
	copy(cursor, g.inPtr[:n])
	for u := 0; u < n; u++ {
		for _, v := range outIdx[outPtr[u]:outPtr[u+1]] {
			g.inIdx[cursor[v]] = int32(u)
			cursor[v]++
		}
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
