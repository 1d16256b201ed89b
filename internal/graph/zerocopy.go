package graph

import "fmt"

// Zero-copy construction: adopt adjacency and normalization arrays that
// already exist — typically views into a memory-mapped TPAM snapshot —
// instead of decoding and copying them. This is what makes cold start O(1)
// in graph size: the loader hands the mapped slices straight to the engine.

// FromCSRArrays adopts preexisting CSR (outPtr/outIdx) and CSC
// (inPtr/inIdx) arrays as a Graph without copying. Only O(1) length
// invariants are checked here; the caller decides between trusting the
// arrays (a checksummed snapshot it just verified) and running the full
// O(n+m) Validate. backing, if non-nil, is retained for the life of the
// graph so memory owned elsewhere (an mmap) cannot be released while views
// into it are live.
//
// When inPtr/inIdx are nil the CSC mirror is rebuilt from the CSR with one
// counting pass (allocating — not the zero-copy path).
func FromCSRArrays(n int, outPtr []int64, outIdx []int32, inPtr []int64, inIdx []int32, backing any) (*Graph, error) {
	if n < 0 || n > MaxNodeID+1 {
		return nil, fmt.Errorf("graph: node count %d out of range", n)
	}
	if len(outPtr) != n+1 {
		return nil, fmt.Errorf("graph: outPtr has %d entries, want %d", len(outPtr), n+1)
	}
	if outPtr[n] != int64(len(outIdx)) {
		return nil, fmt.Errorf("graph: outPtr ends at %d but %d out-edges supplied", outPtr[n], len(outIdx))
	}
	g := &Graph{n: n, outPtr: outPtr, outIdx: outIdx, backing: backing}
	if inPtr == nil && inIdx == nil {
		g.buildCSC()
		return g, nil
	}
	if len(inPtr) != n+1 {
		return nil, fmt.Errorf("graph: inPtr has %d entries, want %d", len(inPtr), n+1)
	}
	if inPtr[n] != int64(len(inIdx)) {
		return nil, fmt.Errorf("graph: inPtr ends at %d but %d in-edges supplied", inPtr[n], len(inIdx))
	}
	if len(inIdx) != len(outIdx) {
		return nil, fmt.Errorf("graph: CSR has %d edges but CSC has %d", len(outIdx), len(inIdx))
	}
	g.inPtr, g.inIdx = inPtr, inIdx
	return g, nil
}

// buildCSC derives the in-adjacency mirror from the CSR arrays with one
// counting pass. Iterating sources in ascending order keeps every in-list
// sorted, matching what Builder produces.
func (g *Graph) buildCSC() {
	n := g.n
	g.inPtr = make([]int64, n+1)
	g.inIdx = make([]int32, len(g.outIdx))
	for _, v := range g.outIdx {
		g.inPtr[v+1]++
	}
	for i := 0; i < n; i++ {
		g.inPtr[i+1] += g.inPtr[i]
	}
	cursor := make([]int64, n)
	copy(cursor, g.inPtr[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.outIdx[g.outPtr[u]:g.outPtr[u+1]] {
			g.inIdx[cursor[v]] = int32(u)
			cursor[v]++
		}
	}
}

// RawCSR returns the underlying CSR arrays (row pointers, column indices).
// They alias internal storage and must not be modified; snapshot writers
// use them to serialize the adjacency without a copy.
func (g *Graph) RawCSR() (outPtr []int64, outIdx []int32) { return g.outPtr, g.outIdx }

// RawCSC returns the underlying CSC arrays (column pointers, row indices),
// under the same aliasing contract as RawCSR.
func (g *Graph) RawCSC() (inPtr []int64, inIdx []int32) { return g.inPtr, g.inIdx }

// NewWalkFromParts adopts precomputed normalization state — invdeg and
// invdeg32, exactly what NewWalk derives in O(n) — so a walk over a mapped
// snapshot allocates nothing. Checksums prove the arrays intact, not that
// their writer computed them from this graph, and a wrong entry breaks the
// walk's mass conservation without failing anything; so one sequential pass
// checks every entry against what NewWalk would compute from g's row
// pointers: invdeg[u] = 1/outdeg(u) (0 when u dangles) and invdeg32[u] =
// float32(invdeg[u]). g's row pointers must be monotone (Validate).
func NewWalkFromParts(g *Graph, invdeg []float64, invdeg32 []float32) (*Walk, error) {
	n := g.NumNodes()
	if len(invdeg) != n || len(invdeg32) != n {
		return nil, fmt.Errorf("graph: normalization arrays have %d/%d entries, want %d",
			len(invdeg), len(invdeg32), n)
	}
	for u := 0; u < n; u++ {
		var want float64
		if d := g.outPtr[u+1] - g.outPtr[u]; d > 0 {
			want = 1 / float64(d)
		}
		if invdeg[u] != want || invdeg32[u] != float32(want) {
			return nil, fmt.Errorf("graph: normalization of node %d is %g/%g, want %g for out-degree %d",
				u, invdeg[u], invdeg32[u], want, g.outPtr[u+1]-g.outPtr[u])
		}
	}
	return &Walk{g: g, invdeg: invdeg, invdeg32: invdeg32}, nil
}

// RawNormalization returns the walk's normalization arrays (1/outdeg in
// both precisions). They alias internal storage and must not be modified.
func (w *Walk) RawNormalization() (invdeg []float64, invdeg32 []float32) {
	return w.invdeg, w.invdeg32
}
