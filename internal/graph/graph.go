// Package graph provides the directed-graph substrate every method in this
// repository runs on: a compressed sparse row (CSR) representation of the
// out-adjacency, the matching in-adjacency (CSC), the row-normalized random
// walk operator Ãᵀ in which every dangling node keeps its mass through an
// implicit self-loop, edge-list I/O, and an explicit CSR matrix type with
// sparse matrix-matrix products for the fill-in experiments (Figs 3 and 4
// of the paper). The walk is the engine's one operator: each application
// pushes along a sparse input's out-edges on the caller's goroutine, or
// pulls a dense one over the walk's row blocks in parallel (a sharded
// engine's blocks are its shards), and counts which kernel answered.
package graph

import "fmt"

// DanglingPolicy names how nodes with no out-edges are handled when the
// adjacency matrix is row-normalized. The paper's analysis (the masses of
// Lemma 2, the bound of Theorem 2) assumes Ãᵀ is column stochastic, and
// DanglingSelfLoop, the only policy, guarantees that.
type DanglingPolicy int

// DanglingSelfLoop treats a dangling node as if it had a single self-loop,
// preserving column stochasticity of Ãᵀ.
const DanglingSelfLoop DanglingPolicy = 0

// mustSelfLoop panics unless p is DanglingSelfLoop: any other value is a
// programming error, since no constructor caller can name one.
func mustSelfLoop(p DanglingPolicy) {
	if p != DanglingSelfLoop {
		panic(fmt.Sprintf("graph: dangling policy %d, want DanglingSelfLoop", int(p)))
	}
}

// Graph is an immutable directed graph in CSR form. Node ids are dense
// integers in [0, N). Build one with a Builder or a generator from
// internal/gen; after construction the adjacency slices must not be mutated.
type Graph struct {
	n int

	// Out-adjacency (CSR over rows = source nodes).
	outPtr []int64
	outIdx []int32

	// In-adjacency (CSC of the same matrix; CSR over destination nodes).
	inPtr []int64
	inIdx []int32

	// backing pins the owner of externally adopted adjacency arrays (a
	// mmapio.Snapshot for zero-copy graphs — see FromCSRArrays). Derived
	// unsafe views do not keep an mmap alive on their own; holding the
	// snapshot here ties the mapping's lifetime to the graph's.
	backing any
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.outIdx)) }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u int) int { return int(g.outPtr[u+1] - g.outPtr[u]) }

// InDegree returns the in-degree of node u.
func (g *Graph) InDegree(u int) int { return int(g.inPtr[u+1] - g.inPtr[u]) }

// OutNeighbors returns the out-neighbor slice of node u. The slice aliases
// internal storage and must not be modified.
func (g *Graph) OutNeighbors(u int) []int32 { return g.outIdx[g.outPtr[u]:g.outPtr[u+1]] }

// InNeighbors returns the in-neighbor slice of node u. The slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(u int) []int32 { return g.inIdx[g.inPtr[u]:g.inPtr[u+1]] }

// HasEdge reports whether the edge u→v exists. Neighbor lists are sorted, so
// this is a binary search.
func (g *Graph) HasEdge(u, v int) bool {
	ns := g.OutNeighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ns[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && int(ns[lo]) == v
}

// Bytes returns the accounted in-memory size of the CSR+CSC structure.
func (g *Graph) Bytes() int64 {
	return int64(len(g.outPtr)+len(g.inPtr))*8 + int64(len(g.outIdx)+len(g.inIdx))*4
}

// Validate checks structural invariants (monotone pointers, in-range ids,
// sorted adjacency, CSR/CSC edge-count agreement). It is used by tests and
// by loaders on untrusted input.
func (g *Graph) Validate() error {
	if len(g.outPtr) != g.n+1 || len(g.inPtr) != g.n+1 {
		return fmt.Errorf("graph: pointer array length mismatch")
	}
	if g.outPtr[0] != 0 || g.inPtr[0] != 0 {
		return fmt.Errorf("graph: row pointers do not start at 0")
	}
	if g.outPtr[g.n] != int64(len(g.outIdx)) || g.inPtr[g.n] != int64(len(g.inIdx)) {
		return fmt.Errorf("graph: pointer/index length mismatch")
	}
	if len(g.outIdx) != len(g.inIdx) {
		return fmt.Errorf("graph: CSR has %d edges but CSC has %d", len(g.outIdx), len(g.inIdx))
	}
	if err := validateAdjacency(g.outPtr, g.outIdx, g.n, "out"); err != nil {
		return err
	}
	return validateAdjacency(g.inPtr, g.inIdx, g.n, "in")
}

// validateAdjacency checks one ptr/idx pair in a single raw-array pass:
// pointers monotone and in bounds, every row strictly ascending with values
// in [0, n). This runs on the zero-copy snapshot load path, where it is the
// safety gate between untrusted mapped arrays and unchecked kernel
// indexing, so the inner loop is tuned: comparing adjacent positions
// (rather than a carried prev) keeps iterations independent for the
// pipeline, and for a strictly ascending row only the first element needs
// the lower-bound check and only the last the upper-bound check.
func validateAdjacency(ptr []int64, idx []int32, n int, kind string) error {
	m := int64(len(idx))
	lo := ptr[0]
	for u := 0; u < n; u++ {
		hi := ptr[u+1]
		// hi > m must be caught here, not by the final-pointer equality
		// check: a pointer spiking past m and coming back down would slice
		// idx out of range below before the monotonicity walk reaches it.
		if hi < lo || hi > m {
			return fmt.Errorf("graph: non-monotone %s pointer at %d", kind, u+1)
		}
		if lo == hi {
			continue
		}
		row := idx[lo:hi:hi]
		if row[0] < 0 || int(row[len(row)-1]) >= n {
			return fmt.Errorf("graph: %s-neighbor of %d out of range [0,%d)", kind, u, n)
		}
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				return fmt.Errorf("graph: %s-neighbors of %d not strictly sorted", kind, u)
			}
		}
		lo = hi
	}
	return nil
}
