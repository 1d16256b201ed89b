package graph

import (
	"fmt"
	"slices"
)

// WithEdges returns g with an edge batch applied: every edge of adds
// inserted, then every edge of removes deleted, so an edge named by both ends
// up absent. These are Delta.Apply's semantics, and the new graph's CSR and
// CSC arrays are exactly the ones Apply followed by Compact builds. g itself
// is untouched.
//
// added lists the edges of adds that g lacked; removed lists the edges of
// removes that were present once the adds were in. Each edge appears once,
// sorted by (source, target), so the list lengths are Delta.Apply's counts.
// An edge both added and removed by the batch is in both lists and leaves the
// graph as it was. When both lists are empty the batch changed nothing and
// next is g itself; otherwise next shares no storage with g. Edges must
// reference existing nodes: a bad id fails the whole batch with an error
// wrapping ErrBadEdge and no result.
//
// The batch is sorted as packed source<<32|target keys and spliced into fresh
// CSR and CSC arrays in one sequential pass each, bulk-copying the runs of
// rows it leaves alone: O(n + m + b log b) for a batch of b edges, with a
// fixed handful of allocations however many rows it touches.
func (g *Graph) WithEdges(adds, removes [][2]int) (next *Graph, added, removed [][2]int, err error) {
	addKeys, err := edgeKeys(g.n, adds)
	if err != nil {
		return nil, nil, nil, err
	}
	delKeys, err := edgeKeys(g.n, removes)
	if err != nil {
		return nil, nil, nil, err
	}
	// ins and del are the net change: edges the graph gains and loses. An
	// edge in added and removed alike is in neither.
	addedKeys := make([]uint64, 0, len(addKeys))
	removedKeys := make([]uint64, 0, len(delKeys))
	del := make([]uint64, 0, len(delKeys))
	for _, k := range addKeys {
		if !g.hasKey(k) {
			addedKeys = append(addedKeys, k)
		}
	}
	for _, k := range delKeys {
		if g.hasKey(k) {
			removedKeys = append(removedKeys, k)
			del = append(del, k)
		} else if _, ok := slices.BinarySearch(addedKeys, k); ok {
			removedKeys = append(removedKeys, k)
		}
	}
	if len(addedKeys) == 0 && len(removedKeys) == 0 {
		return g, nil, nil, nil
	}
	ins := make([]uint64, 0, len(addedKeys))
	for _, k := range addedKeys {
		if _, ok := slices.BinarySearch(removedKeys, k); !ok {
			ins = append(ins, k)
		}
	}
	next = &Graph{n: g.n}
	next.outPtr, next.outIdx = spliceRows(g.outPtr, g.outIdx, ins, del)
	next.inPtr, next.inIdx = spliceRows(g.inPtr, g.inIdx, transposeKeys(ins), transposeKeys(del))
	return next, keyEdges(addedKeys), keyEdges(removedKeys), nil
}

// checkEdge fails for an edge outside the fixed node range [0, n).
func checkEdge(n, u, v int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) outside [0,%d); growing the node set requires a rebuild: %w", u, v, n, ErrBadEdge)
	}
	return nil
}

// edgeKeys packs edges as sorted, deduplicated source<<32|target keys.
func edgeKeys(n int, edges [][2]int) ([]uint64, error) {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		if err := checkEdge(n, e[0], e[1]); err != nil {
			return nil, err
		}
		keys[i] = uint64(e[0])<<32 | uint64(e[1])
	}
	slices.Sort(keys)
	return slices.Compact(keys), nil
}

// hasKey reports whether the packed edge k is in g.
func (g *Graph) hasKey(k uint64) bool {
	_, ok := slices.BinarySearch(g.OutNeighbors(int(k>>32)), int32(uint32(k)))
	return ok
}

// transposeKeys returns the keys with source and target swapped, sorted.
func transposeKeys(keys []uint64) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = k<<32 | k>>32
	}
	slices.Sort(out)
	return out
}

// keyEdges unpacks keys into edge pairs.
func keyEdges(keys []uint64) [][2]int {
	out := make([][2]int, len(keys))
	for i, k := range keys {
		out[i] = [2]int{int(k >> 32), int(uint32(k))}
	}
	return out
}

// spliceRows returns fresh ptr/idx arrays for the adjacency ptr/idx with the
// sorted row<<32|column keys of ins inserted and those of del deleted; every
// ins key must be absent and every del key present. idx is copied in bulk
// between consecutive keys, each key's position found by a binary search in
// its row, and the row pointers shift by the keys of the rows before them.
func spliceRows(ptr []int64, idx []int32, ins, del []uint64) ([]int64, []int32) {
	ni := make([]int32, len(idx)+len(ins)-len(del))
	var at, src int64 // next write position in ni, next read position in idx
	i, j := 0, 0
	for i < len(ins) || j < len(del) {
		insert := j == len(del) || i < len(ins) && ins[i] < del[j]
		var k uint64
		if insert {
			k, i = ins[i], i+1
		} else {
			k, j = del[j], j+1
		}
		u, col := k>>32, int32(uint32(k))
		start := max(src, ptr[u])
		p, _ := slices.BinarySearch(idx[start:ptr[u+1]], col)
		pos := start + int64(p)
		at += int64(copy(ni[at:], idx[src:pos]))
		if insert {
			ni[at] = col
			at++
			src = pos
		} else {
			src = pos + 1
		}
	}
	copy(ni[at:], idx[src:])

	n := len(ptr) - 1
	np := make([]int64, n+1)
	var shift int64
	i, j = 0, 0
	for u := 0; u < n; u++ {
		for ; i < len(ins) && ins[i]>>32 == uint64(u); i++ {
			shift++
		}
		for ; j < len(del) && del[j]>>32 == uint64(u); j++ {
			shift--
		}
		np[u+1] = ptr[u+1] + shift
	}
	return np, ni
}
