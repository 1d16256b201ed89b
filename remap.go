package tpa

import (
	"fmt"

	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// ID remapping for reordered engines. A build-time ordering (Options.Order)
// permutes the CSR for cache locality, but node ids are the public contract
// of every query API, so the permutation must never leak: seeds are mapped
// external→internal on the way in, and score vectors internal→external on
// the way out. This file is where the two id spaces meet; everything below
// the Engine boundary runs internal, except that the top-k paths hand perm
// down so the selector reports external ids and breaks score ties on them
// (an answer then equals TopKOf of the external score vector, boundary ties
// included), and QueryBatch hands it down so each answer is scattered from
// pooled scratch straight into its external-order result.
//
// Conventions (matching graph.Permute): perm[internal] = external,
// inv[external] = internal. Both are nil on natural-order engines, and
// every helper is a no-op then.

// toInternal maps an external seed id to the internal id. Out-of-range
// seeds pass through unmapped so the core layer reports its usual typed
// rwr.ErrSeedOutOfRange.
func (e *Engine) toInternal(seed int) int {
	if e.inv == nil || seed < 0 || seed >= len(e.inv) {
		return seed
	}
	return int(e.inv[seed])
}

// toInternalSeeds maps a seed slice external→internal, returning the input
// unchanged on natural-order engines. The result reuses buf's storage when
// it has room, so a caller holding a small array maps without allocating.
func (e *Engine) toInternalSeeds(seeds, buf []int) []int {
	if e.inv == nil {
		return seeds
	}
	out := buf[:0]
	if cap(out) < len(seeds) {
		out = make([]int, 0, len(seeds))
	}
	for _, s := range seeds {
		out = append(out, e.toInternal(s))
	}
	return out
}

// toExternalVec scatters an internal score vector into external id order.
// On natural-order engines the vector is returned as-is (no copy).
func (e *Engine) toExternalVec(r sparse.Vector) []float64 {
	if e.perm == nil {
		return r
	}
	out := make([]float64, len(r))
	for i, v := range r {
		out[e.perm[i]] = v
	}
	return out
}

// toInternalEdges maps edge endpoints external→internal, validating ranges
// up front (inv is only defined on [0, n)); a bad id fails with ErrBadEdge
// exactly like the unordered path.
func (e *Engine) toInternalEdges(edges [][2]int) ([][2]int, error) {
	if e.inv == nil || len(edges) == 0 {
		return edges, nil
	}
	n := len(e.inv)
	out := make([][2]int, len(edges))
	for i, ed := range edges {
		u, v := ed[0], ed[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d); growing the node set requires a rebuild: %w",
				u, v, n, graph.ErrBadEdge)
		}
		out[i] = [2]int{int(e.inv[u]), int(e.inv[v])}
	}
	return out, nil
}
