package bear

import (
	"fmt"
	"sort"

	"tpa/internal/graph"
)

// HubSpoke is the result of a SlashBurn-style hub-and-spoke decomposition,
// the ordering BEAR-APPROX and BePI eliminate with. Decompose peels
// high-degree "hub" nodes until the residual graph shatters into small
// weakly connected components ("spokes"). Ordering spokes first makes H11 of
// H = I − (1-c)Ãᵀ block diagonal: no edge connects two different spoke
// blocks, because any such edge would have merged them into one component.
type HubSpoke struct {
	// Blocks lists the spoke blocks: disjoint node sets with no edges
	// between different blocks (edges to/from hubs are allowed). Each
	// block has at most the MaxBlock passed to Decompose.
	Blocks [][]int
	// Hubs lists the removed hub nodes.
	Hubs []int
}

// SpokeCount returns the total number of spoke nodes.
func (h *HubSpoke) SpokeCount() int {
	var c int
	for _, b := range h.Blocks {
		c += len(b)
	}
	return c
}

// Ordering returns the permutation new→old: all spoke nodes block by
// block, then the hubs.
func (h *HubSpoke) Ordering() []int {
	ord := make([]int, 0, h.SpokeCount()+len(h.Hubs))
	for _, b := range h.Blocks {
		ord = append(ord, b...)
	}
	ord = append(ord, h.Hubs...)
	return ord
}

// Validate checks the decomposition invariants against the source graph:
// partition of all nodes, block size cap, and block-diagonal structure
// (no edge between two different spoke blocks).
func (h *HubSpoke) Validate(g *graph.Graph, maxBlock int) error {
	n := g.NumNodes()
	owner := make([]int, n) // 0 = unseen, -1 = hub, i+1 = block i
	for _, u := range h.Hubs {
		if u < 0 || u >= n {
			return fmt.Errorf("bear: hub %d out of range", u)
		}
		if owner[u] != 0 {
			return fmt.Errorf("bear: node %d assigned twice", u)
		}
		owner[u] = -1
	}
	for bi, b := range h.Blocks {
		if len(b) > maxBlock {
			return fmt.Errorf("bear: block %d has %d nodes, cap %d", bi, len(b), maxBlock)
		}
		for _, u := range b {
			if u < 0 || u >= n {
				return fmt.Errorf("bear: spoke %d out of range", u)
			}
			if owner[u] != 0 {
				return fmt.Errorf("bear: node %d assigned twice", u)
			}
			owner[u] = bi + 1
		}
	}
	for u := 0; u < n; u++ {
		if owner[u] == 0 {
			return fmt.Errorf("bear: node %d unassigned", u)
		}
	}
	for u := 0; u < n; u++ {
		if owner[u] == -1 {
			continue
		}
		for _, v := range g.OutNeighbors(u) {
			ov := owner[v]
			if ov != -1 && ov != owner[u] {
				return fmt.Errorf("bear: edge (%d,%d) crosses spoke blocks %d and %d", u, v, owner[u]-1, ov-1)
			}
		}
	}
	return nil
}

// Decompose runs the hub-and-spoke peeling: repeatedly remove the k
// highest-degree remaining nodes as hubs and peel off weakly connected
// components of size ≤ maxBlock as spoke blocks, until everything is
// assigned. k is ⌈hubFrac·n⌉ per round. Components larger than maxBlock
// stay in play for the next round; if the whole residual eventually fits
// maxBlock it becomes a final block.
func Decompose(g *graph.Graph, maxBlock int, hubFrac float64) (*HubSpoke, error) {
	n := g.NumNodes()
	if maxBlock < 1 {
		return nil, fmt.Errorf("bear: maxBlock %d must be positive", maxBlock)
	}
	if hubFrac <= 0 || hubFrac > 0.5 {
		return nil, fmt.Errorf("bear: hubFrac %v outside (0,0.5]", hubFrac)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	res := &HubSpoke{}
	k := int(float64(n)*hubFrac) + 1
	for remaining > 0 {
		// Peel small weakly connected components as spoke blocks.
		comps := components(g, alive)
		progress := false
		for _, comp := range comps {
			if len(comp) <= maxBlock {
				res.Blocks = append(res.Blocks, comp)
				for _, u := range comp {
					alive[u] = false
				}
				remaining -= len(comp)
				progress = true
			}
		}
		if remaining == 0 {
			break
		}
		// Remove the k highest-degree remaining nodes as hubs.
		cand := make([]int, 0, remaining)
		for u := 0; u < n; u++ {
			if alive[u] {
				cand = append(cand, u)
			}
		}
		sort.Slice(cand, func(a, b int) bool {
			da := g.InDegree(cand[a]) + g.OutDegree(cand[a])
			db := g.InDegree(cand[b]) + g.OutDegree(cand[b])
			if da != db {
				return da > db
			}
			return cand[a] < cand[b]
		})
		take := k
		if take > len(cand) {
			take = len(cand)
		}
		for _, u := range cand[:take] {
			alive[u] = false
			res.Hubs = append(res.Hubs, u)
		}
		remaining -= take
		_ = progress
	}
	return res, nil
}

// components returns the weakly connected components of the subgraph
// induced by alive nodes.
func components(g *graph.Graph, alive []bool) [][]int {
	n := g.NumNodes()
	seen := make([]bool, n)
	var comps [][]int
	stack := make([]int32, 0, 256)
	for s := 0; s < n; s++ {
		if !alive[s] || seen[s] {
			continue
		}
		var comp []int
		stack = append(stack[:0], int32(s))
		seen[s] = true
		for len(stack) > 0 {
			u := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.OutNeighbors(u) {
				if alive[v] && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
			for _, v := range g.InNeighbors(u) {
				if alive[v] && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
