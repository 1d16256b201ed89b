// Package gen provides deterministic random-graph generators. They are the
// offline substitute for the paper's real-world datasets (Table II): the
// SBM/R-MAT hybrid plants the two structural properties TPA's analysis
// relies on — skewed degree distributions and block-wise community
// structure — while Erdős–Rényi graphs provide the structure-free "random
// graph" twins that Fig 6 compares against.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"tpa/internal/graph"
)

// ErdosRenyi generates a directed graph with n nodes and approximately m
// distinct uniformly random edges (self-loops excluded). It is the "random
// graph with the same numbers of nodes and edges" used in Fig 6.
func ErdosRenyi(n int, m int64, seed int64) *graph.Graph {
	if n < 2 {
		panic(fmt.Sprintf("gen: ErdosRenyi needs n >= 2, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderN(n).DropSelfLoops()
	for int64(b.NumPendingEdges()) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RMAT generates a directed graph with 2^scale nodes and approximately m
// edges using the recursive matrix model with quadrant probabilities
// (a, b, c, d), a+b+c+d = 1. The classical parameters (0.57, 0.19, 0.19,
// 0.05) produce heavy-tailed degree distributions and a self-similar
// community structure, matching the "block-wise structure of many
// real-world graphs" the paper leans on.
func RMAT(scale int, m int64, a, b, c float64, seed int64) *graph.Graph {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("gen: RMAT scale %d out of range [1,30]", scale))
	}
	d := 1 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < 0 {
		panic(fmt.Sprintf("gen: RMAT probabilities (%v,%v,%v,%v) invalid", a, b, c, d))
	}
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilderN(n).DropSelfLoops()
	for int64(bld.NumPendingEdges()) < m {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		bld.AddEdge(u, v)
	}
	return bld.Build()
}

// DefaultRMAT generates an R-MAT graph with the classical Graph500
// parameters (0.57, 0.19, 0.19, 0.05).
func DefaultRMAT(scale int, m int64, seed int64) *graph.Graph {
	return RMAT(scale, m, 0.57, 0.19, 0.19, seed)
}

// SBMConfig configures a stochastic block model generator.
type SBMConfig struct {
	Nodes       int     // total node count
	Communities int     // number of equally sized blocks
	AvgOutDeg   float64 // expected out-degree per node
	// PIn is the probability that an edge endpoint stays inside the
	// source's own community (the rest is spread uniformly over the other
	// communities). 0.9 gives the pronounced block-diagonal structure of
	// Fig 5.
	PIn  float64
	Seed int64
	// Uniform disables the Zipf in-degree skew: targets are drawn
	// uniformly within the chosen community. Classic SBM behavior, useful
	// when evenly spread communities are wanted (e.g. community-recovery
	// demos).
	Uniform bool
}

// SBM generates a directed stochastic-block-model graph: each node draws
// ~AvgOutDeg out-edges; each edge lands inside the node's own community
// with probability PIn, otherwise in a uniformly random other community.
// Degree skew within a community follows a Zipf-like preference so hubs
// exist, as in real social networks. The rows come from StreamSBM and are
// packed straight into CSR form: peak memory is the final graph plus one
// row buffer. It panics on a config StreamSBM rejects.
func SBM(cfg SBMConfig) *graph.Graph {
	n := max(cfg.Nodes, 0)
	outPtr := make([]int64, n+1)
	outIdx := make([]int32, 0, max(int(float64(n)*cfg.AvgOutDeg*11/10), 0))
	var g *graph.Graph
	err := StreamSBM(cfg, func(u int, targets []int32) error {
		outIdx = append(outIdx, targets...)
		outPtr[u+1] = int64(len(outIdx))
		return nil
	})
	if err == nil {
		g, err = graph.FromCSRArrays(n, outPtr, outIdx, nil, nil, nil)
	}
	if err != nil {
		panic(err.Error())
	}
	return g
}

// BarabasiAlbert generates a directed preferential-attachment graph: nodes
// arrive one at a time and attach k out-edges to existing nodes with
// probability proportional to (in-degree + 1). It produces power-law
// in-degrees without community structure.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if n < 2 || k < 1 {
		panic(fmt.Sprintf("gen: bad BA parameters n=%d k=%d", n, k))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderN(n).DropSelfLoops()
	// targets is a repeated-node multiset implementing preferential
	// attachment by uniform sampling.
	targets := make([]int, 0, 2*n*k)
	targets = append(targets, 0)
	for u := 1; u < n; u++ {
		kk := k
		if u < k {
			kk = u
		}
		for e := 0; e < kk; e++ {
			v := targets[rng.Intn(len(targets))]
			if v == u {
				continue
			}
			b.AddEdge(u, v)
			targets = append(targets, v)
		}
		targets = append(targets, u)
	}
	return b.Build()
}

// CommunityRMAT generates the dataset analogue used throughout the
// experiment harness: an SBM backbone (block-wise structure) overlaid with
// an R-MAT-style global hub layer (skewed degrees reaching across
// communities). frac controls the fraction of edges in the global layer;
// the backbone keeps 90% of its edges in-community.
func CommunityRMAT(n int, m int64, communities int, frac float64, seed int64) *graph.Graph {
	return CommunityRMATWithPIn(n, m, communities, frac, 0.9, seed)
}

// CommunityRMATWithPIn is CommunityRMAT with an explicit intra-community
// probability for the SBM backbone. Higher pin (and lower frac) slows the
// walk's mixing toward PageRank, which matters for reproducing the paper's
// T-sweep (Fig 9): on fast-mixing graphs the stranger approximation is
// near-perfect at every T and the interior error minimum disappears.
func CommunityRMATWithPIn(n int, m int64, communities int, frac, pin float64, seed int64) *graph.Graph {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("gen: CommunityRMAT frac %v outside [0,1]", frac))
	}
	avg := float64(m) * (1 - frac) / float64(n)
	sbm := SBM(SBMConfig{Nodes: n, Communities: communities, AvgOutDeg: avg, PIn: pin, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	b := graph.NewBuilderN(n).DropSelfLoops()
	for u := 0; u < n; u++ {
		for _, v := range sbm.OutNeighbors(u) {
			b.AddEdge(u, int(v))
		}
	}
	// Global layer: preferential targets via a Zipf over all node ids.
	zipf := rand.NewZipf(rng, 1.4, 8, uint64(n-1))
	global := int64(float64(m) * frac)
	for i := int64(0); i < global; i++ {
		u := rng.Intn(n)
		v := int(zipf.Uint64())
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// poisson draws a Poisson(lambda) variate by inversion (Knuth's method is
// fine for the small lambdas used here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large lambda keeps this O(1).
		v := lambda + rng.NormFloat64()*math.Sqrt(lambda)
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
