// Command graphgen generates synthetic graphs, either by model or as one of
// the named dataset analogues of Table II:
//
//	graphgen -model sbm -nodes 10000 -edges 120000 -communities 20 -out g.tsv
//	graphgen -model sbm -nodes 12000000 -edges 120000000 -out big.tsv.gz
//	graphgen -model er|rmat|ba|community ...
//	graphgen -dataset Slashdot -out slashdot.tsv
//
// -model sbm writes its edge list one source row at a time in memory
// bounded by the longest row, so it also generates inputs too large to
// build in RAM. Its edges are the ones gen.SBM builds; only the header
// comment lacks the edge count, which a single pass cannot know up front.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tpa/internal/datasets"
	"tpa/internal/gen"
	"tpa/internal/graph"
)

func main() {
	model := flag.String("model", "community", "generator: er, rmat, ba, sbm, community")
	dataset := flag.String("dataset", "", "generate a named Table II analogue instead (e.g. Slashdot)")
	nodes := flag.Int("nodes", 10000, "node count (er/ba/sbm/community)")
	edges := flag.Int64("edges", 100000, "edge count target")
	scale := flag.Int("scale", 14, "log2 node count (rmat)")
	communities := flag.Int("communities", 16, "community count (sbm/community)")
	pin := flag.Float64("pin", 0.9, "intra-community probability (sbm)")
	k := flag.Int("k", 5, "edges per new node (ba)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	out := flag.String("out", "", "output edge-list path (required; .gz supported)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -out is required")
		os.Exit(2)
	}
	if *dataset == "" && strings.ToLower(*model) == "sbm" {
		sbm := gen.SBMConfig{Nodes: *nodes, Communities: *communities,
			AvgOutDeg: float64(*edges) / float64(*nodes), PIn: *pin, Seed: *seed}
		if err := gen.StreamSBMEdgeListFile(*out, sbm); err != nil {
			fmt.Fprintf(os.Stderr, "graphgen: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d nodes, streamed\n", *out, *nodes)
		return
	}
	var g *graph.Graph
	var err error
	if *dataset != "" {
		var d datasets.Dataset
		d, err = datasets.Get(*dataset)
		if err == nil {
			g = d.Generate()
		}
	} else {
		switch strings.ToLower(*model) {
		case "er":
			g = gen.ErdosRenyi(*nodes, *edges, *seed)
		case "rmat":
			g = gen.DefaultRMAT(*scale, *edges, *seed)
		case "ba":
			g = gen.BarabasiAlbert(*nodes, *k, *seed)
		case "community":
			g = gen.CommunityRMAT(*nodes, *edges, *communities, 0.2, *seed)
		default:
			err = fmt.Errorf("unknown model %q", *model)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	if err := graph.SaveFile(*out, g); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: writing %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d nodes, %d edges\n", *out, g.NumNodes(), g.NumEdges())
}
