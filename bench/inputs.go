package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tpa/internal/gen"
	"tpa/internal/graph"
)

// Every benchmark graph is a stochastic block model with the same degree
// and mixing; only the size differs. arXiv 0908.0976 shows random-walk cost
// differs sharply between graphs with one degree sequence, so the graphs are
// pinned by hash rather than by generator parameters alone.
const (
	sbmAvgOutDeg = 12
	sbmPIn       = 0.9
)

// graphSpec names one benchmark graph.
type graphSpec struct {
	Name        string
	Nodes       int
	Communities int
}

// graphReport is what a run records about its graph, and what pins.json
// holds for the pinned seed.
type graphReport struct {
	SHA256 string `json:"sha256"`
	Nodes  int    `json:"nodes"`
	Edges  int64  `json:"edges"`
}

// pinnedSeed is the seed pins.json describes; seed 2 is held out for
// claims (see README.md).
const pinnedSeed = 1

//go:embed pins.json
var pinsJSON []byte

// inputs is one generated graph: in memory for the oracles, on disk for the
// server.
type inputs struct {
	spec   graphSpec
	g      *graph.Graph
	path   string
	report graphReport
	genS   float64 // generate + write
}

// makeInputs generates spec's graph from seed and writes its edge list into
// dir, hashing what it writes. For the pinned seed the hash and counts must
// match pins.json: a change to internal/gen may not silently change the
// workload.
func makeInputs(spec graphSpec, seed int64, dir string) (*inputs, error) {
	start := time.Now()
	g := gen.SBM(gen.SBMConfig{Nodes: spec.Nodes, Communities: spec.Communities,
		AvgOutDeg: sbmAvgOutDeg, PIn: sbmPIn, Seed: seed})
	path := filepath.Join(dir, spec.Name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	if err := graph.WriteEdgeList(io.MultiWriter(f, h), g); err != nil {
		f.Close()
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	in := &inputs{spec: spec, g: g, path: path, genS: time.Since(start).Seconds(),
		report: graphReport{SHA256: hex.EncodeToString(h.Sum(nil)), Nodes: g.NumNodes(), Edges: g.NumEdges()}}
	if seed == pinnedSeed {
		var pins map[string]graphReport
		if err := json.Unmarshal(pinsJSON, &pins); err != nil {
			return nil, fmt.Errorf("pins.json: %w", err)
		}
		if want, ok := pins[spec.Name]; ok && want != in.report {
			return nil, fmt.Errorf("graph %s for seed %d is %+v, pins.json expects %+v: the workload changed",
				spec.Name, seed, in.report, want)
		}
	}
	return in, nil
}

// rngFor returns the generator of one named input stream, so that adding a
// stream never shifts another.
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// Input streams.
const (
	streamRequests = iota + 1
	streamSchedule
	streamCheck
	streamTrace
	streamEdges
	streamReader
)

// uniformSeeds draws count node ids uniformly, with repeats.
func uniformSeeds(rng *rand.Rand, n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// distinctSeeds draws count different node ids uniformly.
func distinctSeeds(rng *rand.Rand, n, count int) []int {
	seen := make(map[int]bool, count)
	out := make([]int, 0, count)
	for len(out) < count {
		if s := rng.Intn(n); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// byDegree returns the count highest and count lowest total-degree nodes
// (ties broken by id): the hub and tail seeds.
func byDegree(g *graph.Graph, count int) (hubs, tails []int) {
	n := g.NumNodes()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	deg := func(u int) int { return g.OutDegree(u) + g.InDegree(u) }
	sort.Slice(ids, func(a, b int) bool {
		if da, db := deg(ids[a]), deg(ids[b]); da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	if count > n {
		count = n
	}
	return ids[:count], ids[n-count:]
}

// liveEdges is the benchmark's own copy of a mutating graph's edge set, so
// that every write can add edges that do not exist and remove ones that do.
// The edges it adds come from a second draw of the same block model, and the
// ones it removes go back into that pool: the live set is always a sample of
// one fixed edge population, so the graph keeps its communities and degrees
// however long the churn runs. (Adding uniformly random edges instead turns
// the graph into a random one within a few hundred writes, and reindexing a
// random graph converges faster: the workload would speed up as it ran.)
type liveEdges struct {
	live, absent [][2]int
}

func newLiveEdges(in *inputs, seed int64) *liveEdges {
	l := &liveEdges{}
	other := gen.SBM(gen.SBMConfig{Nodes: in.spec.Nodes, Communities: in.spec.Communities,
		AvgOutDeg: sbmAvgOutDeg, PIn: sbmPIn, Seed: seed*7919 + streamEdges})
	for u := 0; u < in.g.NumNodes(); u++ {
		for _, v := range in.g.OutNeighbors(u) {
			l.live = append(l.live, [2]int{u, int(v)})
		}
		for _, v := range other.OutNeighbors(u) {
			if !in.g.HasEdge(u, int(v)) {
				l.absent = append(l.absent, [2]int{u, int(v)})
			}
		}
	}
	return l
}

// take removes and returns count random elements of *pool.
func take(rng *rand.Rand, pool *[][2]int, count int) [][2]int {
	p := *pool
	out := make([][2]int, count)
	for i := range out {
		j := rng.Intn(len(p))
		out[i] = p[j]
		p[j] = p[len(p)-1]
		p = p[:len(p)-1]
	}
	*pool = p
	return out
}

// batch moves count edges each way between the live set and the pool: the
// body of one write. The server applies adds before removes, and neither
// list can name an edge of the other.
func (l *liveEdges) batch(rng *rand.Rand, count int) (adds, removes [][2]int) {
	removes = take(rng, &l.live, count)
	adds = take(rng, &l.absent, count)
	l.live = append(l.live, adds...)
	l.absent = append(l.absent, removes...)
	return adds, removes
}
