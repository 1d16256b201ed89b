// Command arena sweeps the registered RWR methods (TPA and the paper's
// competitors) over one or more graphs and prints the Fig 3/4-style
// comparison table: preprocessing time and memory, query time, and accuracy
// against exact RWR per seed workload. It exits non-zero if any cell fails
// or any method's measured mean L1 error exceeds its declared bound.
//
//	go run ./cmd/arena [-gen sbm:10000,rmat:5000] [-graphs edges.tsv,...]
//	                   [-methods tpa,exact,...] [-workloads uniform,hub,tail]
//	                   [-queries 10] [-k 20] [-c 0.15] [-eps 1e-9] [-seed 1]
//	                   [-json out.json] [-quiet]
//
// Graphs come from edge lists (-graphs) and/or from generators
// (-gen kind:nodes); with neither, a 2000-node SBM is generated.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/method"
	"tpa/internal/rwr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "arena: %v\n", err)
		os.Exit(1)
	}
}

// run parses the flags, runs the sweep and returns an error if any cell
// failed or any declared bound was violated.
func run(args []string) error {
	fs := flag.NewFlagSet("arena", flag.ExitOnError)
	graphFiles := fs.String("graphs", "", "comma-separated edge-list files to benchmark")
	genSpecs := fs.String("gen", "", "comma-separated generated graphs, kind:nodes with kind sbm|rmat|er|ba")
	methods := fs.String("methods", strings.Join(method.DefaultArenaMethods(), ","),
		"comma-separated method names (see registry)")
	workloads := fs.String("workloads", "uniform,hub,tail", "comma-separated seed workloads")
	queries := fs.Int("queries", 10, "query seeds per workload")
	k := fs.Int("k", 20, "cutoff for recall@k against exact RWR")
	seed := fs.Int64("seed", 1, "workload sampling seed")
	c := fs.Float64("c", 0.15, "restart probability")
	eps := fs.Float64("eps", 1e-9, "convergence tolerance")
	jsonOut := fs.String("json", "", "also write the full report as JSON to this file")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var graphs []method.ArenaGraph
	for _, path := range splitList(*graphFiles) {
		g, err := graph.LoadFile(path)
		if err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		graphs = append(graphs, method.ArenaGraph{
			Name: path, Walk: graph.NewWalk(g, graph.DanglingSelfLoop),
		})
	}
	for _, spec := range splitList(*genSpecs) {
		ag, err := generatedGraph(spec, *seed)
		if err != nil {
			return err
		}
		graphs = append(graphs, ag)
	}
	if len(graphs) == 0 {
		ag, err := generatedGraph("sbm:2000", *seed)
		if err != nil {
			return err
		}
		graphs = append(graphs, ag)
	}

	opts := method.ArenaOptions{
		Methods:   splitList(*methods),
		Workloads: splitList(*workloads),
		Queries:   *queries,
		K:         *k,
		Seed:      *seed,
		Cfg:       rwr.Config{C: *c, Eps: *eps},
	}
	logf := log.Printf
	if *quiet {
		logf = nil
	}
	report, err := method.RunArena(graphs, opts, logf)
	if err != nil {
		return err
	}
	fmt.Print(report.Table())
	if *jsonOut != "" {
		raw, err := report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonOut, err)
		}
		log.Printf("arena: wrote %s", *jsonOut)
	}
	// A failed cell is visible in the table; the exit status carries it too.
	for _, cell := range report.Cells {
		if cell.Err != "" {
			return fmt.Errorf("%d of %d cells failed (first: %s/%s: %s)",
				countFailed(report), len(report.Cells), cell.Graph, cell.Method, cell.Err)
		}
	}
	// Every method ships a declared accuracy bound (Stats().Bound); the
	// arena holds it to that promise end-to-end.
	if v := report.BoundViolations(); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintln(os.Stderr, "bound violation:", line)
		}
		return fmt.Errorf("%d declared-bound violation(s)", len(v))
	}
	return nil
}

func countFailed(r *method.ArenaReport) int {
	n := 0
	for _, c := range r.Cells {
		if c.Err != "" {
			n++
		}
	}
	return n
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// generatedGraph builds one synthetic arena graph from a kind:nodes spec.
func generatedGraph(spec string, seed int64) (method.ArenaGraph, error) {
	kind, nodesStr, ok := strings.Cut(spec, ":")
	if !ok {
		return method.ArenaGraph{}, fmt.Errorf("-gen %q: want kind:nodes", spec)
	}
	n, err := strconv.Atoi(nodesStr)
	if err != nil || n < 10 {
		return method.ArenaGraph{}, fmt.Errorf("-gen %q: bad node count", spec)
	}
	var g *graph.Graph
	switch kind {
	case "sbm":
		g = gen.SBM(gen.SBMConfig{Nodes: n, Communities: 10, AvgOutDeg: 8, PIn: 0.9, Seed: seed})
	case "rmat":
		g = gen.DefaultRMAT(log2ceil(n), int64(8*n), seed)
	case "er":
		g = gen.ErdosRenyi(n, int64(8*n), seed)
	case "ba":
		g = gen.BarabasiAlbert(n, 8, seed)
	default:
		return method.ArenaGraph{}, fmt.Errorf("-gen %q: unknown kind (want sbm|rmat|er|ba)", spec)
	}
	return method.ArenaGraph{
		Name: fmt.Sprintf("%s-%d", kind, g.NumNodes()),
		Walk: graph.NewWalk(g, graph.DanglingSelfLoop),
	}, nil
}

func log2ceil(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}
