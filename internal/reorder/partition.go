// Package reorder provides the label-propagation community partitioner.
// internal/shard builds its shard plan, the one node layout a TPA engine
// can be built with, from it; NB-LIN (internal/nblin) uses it in place of
// METIS.
package reorder

import (
	"fmt"
	"sort"

	"tpa/internal/graph"
)

// Partition assigns every node to one of several parts of bounded size. It
// stands in for METIS in NB-LIN: label propagation finds communities, which
// are then bin-packed into parts no larger than maxPart.
type Partition struct {
	// Part[u] is the part id of node u.
	Part []int
	// Sizes[p] is the number of nodes in part p.
	Sizes []int
}

// NumParts returns the number of parts.
func (p *Partition) NumParts() int { return len(p.Sizes) }

// Nodes returns the nodes of part id in ascending order.
func (p *Partition) Nodes(id int) []int {
	var out []int
	for u, pu := range p.Part {
		if pu == id {
			out = append(out, u)
		}
	}
	return out
}

// Validate checks that the partition covers all nodes and respects the size
// cap.
func (p *Partition) Validate(n, maxPart int) error {
	if len(p.Part) != n {
		return fmt.Errorf("reorder: partition covers %d of %d nodes", len(p.Part), n)
	}
	counts := make([]int, p.NumParts())
	for u, pu := range p.Part {
		if pu < 0 || pu >= p.NumParts() {
			return fmt.Errorf("reorder: node %d in invalid part %d", u, pu)
		}
		counts[pu]++
	}
	for id, c := range counts {
		if c != p.Sizes[id] {
			return fmt.Errorf("reorder: part %d size %d != recorded %d", id, c, p.Sizes[id])
		}
		if c > maxPart {
			return fmt.Errorf("reorder: part %d size %d exceeds cap %d", id, c, maxPart)
		}
	}
	return nil
}

// LabelPropagation partitions the graph into parts of at most maxPart nodes:
// `rounds` synchronous label-propagation sweeps over the undirected version
// of the graph find communities; communities are then split (if oversized)
// and greedily bin-packed (if undersized) into parts.
func LabelPropagation(g *graph.Graph, maxPart, rounds int) (*Partition, error) {
	n := g.NumNodes()
	if maxPart < 1 {
		return nil, fmt.Errorf("reorder: maxPart %d must be positive", maxPart)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("reorder: rounds %d must be positive", rounds)
	}
	label := make([]int, n)
	for u := range label {
		label[u] = u
	}
	// Dense epoch-stamped scratch instead of a per-node map: labels are node
	// ids, so counts index directly and only the labels touched for the
	// current node are ever reset. This keeps the sweep O(edges) — a map
	// here costs hours on a 100M-edge graph because clear() never shrinks
	// below the largest neighborhood seen.
	counts := make([]int32, n)
	stamp := make([]int32, n)
	touched := make([]int, 0, 64)
	epoch := int32(0)
	for round := 0; round < rounds; round++ {
		changed := false
		for u := 0; u < n; u++ {
			if epoch == 1<<31-1 {
				for i := range stamp {
					stamp[i] = 0
				}
				epoch = 0
			}
			epoch++
			touched = touched[:0]
			// Most frequent label among undirected neighbors; ties go to
			// the smallest label for determinism.
			for _, v := range g.OutNeighbors(u) {
				l := label[v]
				if stamp[l] != epoch {
					stamp[l] = epoch
					counts[l] = 0
					touched = append(touched, l)
				}
				counts[l]++
			}
			for _, v := range g.InNeighbors(u) {
				l := label[v]
				if stamp[l] != epoch {
					stamp[l] = epoch
					counts[l] = 0
					touched = append(touched, l)
				}
				counts[l]++
			}
			if len(touched) == 0 {
				continue
			}
			best, bestCnt := label[u], int32(0)
			for _, l := range touched {
				if c := counts[l]; c > bestCnt || (c == bestCnt && l < best) {
					best, bestCnt = l, c
				}
			}
			if best != label[u] {
				label[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Group nodes by final label.
	groups := make(map[int][]int)
	for u, l := range label {
		groups[l] = append(groups[l], u)
	}
	labels := make([]int, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	// Split oversized communities, then first-fit-decreasing bin pack.
	var chunks [][]int
	for _, l := range labels {
		nodes := groups[l]
		for len(nodes) > maxPart {
			chunks = append(chunks, nodes[:maxPart])
			nodes = nodes[maxPart:]
		}
		if len(nodes) > 0 {
			chunks = append(chunks, nodes)
		}
	}
	sort.SliceStable(chunks, func(a, b int) bool { return len(chunks[a]) > len(chunks[b]) })
	part := make([]int, n)
	var sizes []int
	for _, chunk := range chunks {
		placed := -1
		for id, sz := range sizes {
			if sz+len(chunk) <= maxPart {
				placed = id
				break
			}
		}
		if placed == -1 {
			placed = len(sizes)
			sizes = append(sizes, 0)
		}
		for _, u := range chunk {
			part[u] = placed
		}
		sizes[placed] += len(chunk)
	}
	return &Partition{Part: part, Sizes: sizes}, nil
}
