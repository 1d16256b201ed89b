package method

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"tpa/internal/core"
	"tpa/internal/eval"
	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// The arena sweeps registered methods × graphs × seed workloads and scores
// every cell against exact RWR, reproducing the shape of the paper's Fig 3
// (preprocessing time and memory) and Fig 4 (query time vs accuracy) as one
// self-service benchmark: repro/cmd/arena on the command line, RunArena here.

// Workload names: how arena query seeds are drawn from a graph.
const (
	// WorkloadUniform draws seeds uniformly at random.
	WorkloadUniform = "uniform"
	// WorkloadHub uses the highest out-degree nodes — the regime where
	// local push methods fan out worst.
	WorkloadHub = "hub"
	// WorkloadTail uses the lowest out-degree nodes — sparse neighborhoods
	// where sampling methods see the fewest distinct walks.
	WorkloadTail = "tail"
)

// DefaultArenaMethods returns the registered methods whose full-vector
// queries are tractable at arena scale — everything except the pair-based
// engines (fastppr, bippr), whose O(n) per-query push loops dominate the
// sweep without adding a serving-relevant data point. Pass ArenaOptions.
// Methods explicitly to include them.
func DefaultArenaMethods() []string {
	return []string{TPA, Exact, MC, Bear, BePI, FORA, HubPPR, BRPPR, NBLin}
}

// ArenaGraph is one graph entered into the arena.
type ArenaGraph struct {
	Name string
	Walk *graph.Walk
}

// ArenaOptions configure a sweep. The zero value runs the default method
// list over all three workloads with 10 queries each.
type ArenaOptions struct {
	// Methods are registry names; nil uses DefaultArenaMethods().
	Methods []string
	// Workloads to draw seeds from; nil uses uniform, hub and tail.
	Workloads []string
	// Queries is the number of seeds per workload (0 = 10).
	Queries int
	// K is the cutoff for Recall@K against exact (0 = 20).
	K int
	// Cfg is the shared RWR problem; the zero value uses rwr.DefaultConfig().
	Cfg rwr.Config
	// Seed drives workload sampling (0 = 1).
	Seed int64
}

func (o *ArenaOptions) setDefaults() {
	if o.Methods == nil {
		o.Methods = DefaultArenaMethods()
	}
	if o.Workloads == nil {
		o.Workloads = []string{WorkloadUniform, WorkloadHub, WorkloadTail}
	}
	if o.Queries == 0 {
		o.Queries = 10
	}
	if o.K == 0 {
		o.K = 20
	}
	if o.Cfg == (rwr.Config{}) {
		o.Cfg = rwr.DefaultConfig()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// WorkloadResult aggregates one method's queries over one workload.
type WorkloadResult struct {
	Workload   string        `json:"workload"`
	Queries    int           `json:"queries"`
	MeanQuery  time.Duration `json:"mean_query_ns"`
	MaxQuery   time.Duration `json:"max_query_ns"`
	MeanL1     float64       `json:"mean_l1"`
	MeanRecall float64       `json:"mean_recall_at_k"`
}

// ArenaCell is one (graph, method) entry of the sweep.
type ArenaCell struct {
	Graph  string `json:"graph"`
	Method string `json:"method"`
	// Err records a preprocessing or query failure; Workloads is empty
	// when it is set. The sweep continues past failed cells.
	Err            string           `json:"err,omitempty"`
	PreprocessTime time.Duration    `json:"preprocess_ns"`
	IndexBytes     int64            `json:"index_bytes"`
	Bound          float64          `json:"declared_bound"`
	Workloads      []WorkloadResult `json:"workloads,omitempty"`
}

// ArenaGraphInfo describes one swept graph in the report.
type ArenaGraphInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int64  `json:"edges"`
}

// ArenaReport is the full sweep result, renderable as text (Table) and
// directly JSON-marshalable.
type ArenaReport struct {
	Graphs    []ArenaGraphInfo `json:"graphs"`
	Methods   []string         `json:"methods"`
	Workloads []string         `json:"workloads"`
	Queries   int              `json:"queries_per_workload"`
	K         int              `json:"k"`
	Cells     []ArenaCell      `json:"cells"`
}

// workloadSeeds draws the seed set for one named workload.
func workloadSeeds(g *graph.Graph, workload string, q int, seed int64) ([]int, error) {
	n := g.NumNodes()
	if q > n {
		q = n
	}
	switch workload {
	case WorkloadUniform:
		return eval.RandomSeeds(n, q, seed), nil
	case WorkloadHub, WorkloadTail:
		// Rank nodes by out-degree, ties by id for determinism.
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool {
			da, db := g.OutDegree(ids[a]), g.OutDegree(ids[b])
			if da != db {
				if workload == WorkloadHub {
					return da > db
				}
				return da < db
			}
			return ids[a] < ids[b]
		})
		return ids[:q], nil
	default:
		return nil, fmt.Errorf("method: unknown workload %q (want %s, %s or %s)",
			workload, WorkloadUniform, WorkloadHub, WorkloadTail)
	}
}

// RunArena sweeps opts.Methods over the graphs, scoring every method's
// answers against exact RWR on each workload. logf (may be nil) receives
// one progress line per cell.
func RunArena(graphs []ArenaGraph, opts ArenaOptions, logf func(format string, args ...any)) (*ArenaReport, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("method: arena needs at least one graph")
	}
	opts.setDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	report := &ArenaReport{
		Methods:   opts.Methods,
		Workloads: opts.Workloads,
		Queries:   opts.Queries,
		K:         opts.K,
	}
	for _, ag := range graphs {
		g := ag.Walk.Graph()
		report.Graphs = append(report.Graphs, ArenaGraphInfo{
			Name: ag.Name, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		})
		// Seeds per workload, drawn once so every method answers the same
		// queries; exact vectors computed lazily and shared across methods.
		seedSets := make(map[string][]int, len(opts.Workloads))
		for _, wl := range opts.Workloads {
			seeds, err := workloadSeeds(g, wl, opts.Queries, opts.Seed)
			if err != nil {
				return nil, err
			}
			seedSets[wl] = seeds
		}
		exact := make(map[int]sparse.Vector)
		truth := func(seed int) (sparse.Vector, error) {
			if v, ok := exact[seed]; ok {
				return v, nil
			}
			v, err := core.ExactRWR(ag.Walk, seed, opts.Cfg)
			if err != nil {
				return nil, err
			}
			exact[seed] = v
			return v, nil
		}
		for _, name := range opts.Methods {
			cell := runArenaCell(ag, name, opts, seedSets, truth)
			if cell.Err != "" {
				logf("arena: %s/%s: %s", ag.Name, name, cell.Err)
			} else {
				logf("arena: %s/%s: prep %s, index %s",
					ag.Name, name,
					eval.FormatDuration(cell.PreprocessTime),
					eval.FormatBytes(cell.IndexBytes))
			}
			report.Cells = append(report.Cells, cell)
		}
	}
	return report, nil
}

// runArenaCell prepares one method on one graph and runs every workload.
func runArenaCell(ag ArenaGraph, name string, opts ArenaOptions,
	seedSets map[string][]int, truth func(int) (sparse.Vector, error)) ArenaCell {
	cell := ArenaCell{Graph: ag.Name, Method: name}
	m, err := New(name)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	if err := m.Preprocess(ag.Walk, opts.Cfg); err != nil {
		cell.Err = err.Error()
		return cell
	}
	st := m.Stats()
	cell.PreprocessTime = st.PreprocessTime
	cell.IndexBytes = st.IndexBytes
	cell.Bound = st.Bound
	for _, wl := range opts.Workloads {
		seeds := seedSets[wl]
		res := WorkloadResult{Workload: wl, Queries: len(seeds)}
		var total time.Duration
		for _, s := range seeds {
			start := time.Now()
			r, _, err := m.Query(s)
			el := time.Since(start)
			if err != nil {
				cell.Err = fmt.Sprintf("query(%d): %v", s, err)
				cell.Workloads = nil
				return cell
			}
			total += el
			if el > res.MaxQuery {
				res.MaxQuery = el
			}
			ex, err := truth(s)
			if err != nil {
				cell.Err = fmt.Sprintf("exact(%d): %v", s, err)
				cell.Workloads = nil
				return cell
			}
			res.MeanL1 += eval.L1Error(ex, r)
			res.MeanRecall += eval.RecallAtK(ex, r, opts.K)
		}
		if n := len(seeds); n > 0 {
			res.MeanQuery = total / time.Duration(n)
			res.MeanL1 /= float64(n)
			res.MeanRecall /= float64(n)
		}
		cell.Workloads = append(cell.Workloads, res)
	}
	return cell
}

// JSON renders the report as indented JSON.
func (r *ArenaReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// BoundViolations lists every (graph, method, workload) whose measured mean
// L1 against exact RWR exceeds the method's declared accuracy bound. Empty
// means every declared envelope held end-to-end — the contract the CI arena
// gate enforces.
func (r *ArenaReport) BoundViolations() []string {
	var out []string
	for _, c := range r.Cells {
		for _, w := range c.Workloads {
			if w.MeanL1 > c.Bound {
				out = append(out, fmt.Sprintf("%s/%s/%s: mean L1 %.3g exceeds declared bound %.3g",
					c.Graph, c.Method, w.Workload, w.MeanL1, c.Bound))
			}
		}
	}
	return out
}

// Table renders the report as one aligned text table per graph, in the
// spirit of the paper's Fig 3 (preprocessing cost) and Fig 4 (query cost vs
// accuracy): one row per method, one query/L1/recall column group per
// workload.
func (r *ArenaReport) Table() string {
	var sb strings.Builder
	for _, gi := range r.Graphs {
		fmt.Fprintf(&sb, "== %s (n=%d, m=%d; %d queries/workload, recall@%d) ==\n",
			gi.Name, gi.Nodes, gi.Edges, r.Queries, r.K)
		tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "method\tprep\tindex\tbound")
		for _, wl := range r.Workloads {
			fmt.Fprintf(tw, "\t%s:query\tL1\tR@k", wl)
		}
		fmt.Fprintln(tw)
		for _, c := range r.Cells {
			if c.Graph != gi.Name {
				continue
			}
			if c.Err != "" {
				fmt.Fprintf(tw, "%s\tFAILED: %s\n", c.Method, c.Err)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.3g",
				c.Method,
				eval.FormatDuration(c.PreprocessTime),
				eval.FormatBytes(c.IndexBytes),
				c.Bound)
			for _, w := range c.Workloads {
				fmt.Fprintf(tw, "\t%s\t%.3g\t%.2f",
					eval.FormatDuration(w.MeanQuery), w.MeanL1, w.MeanRecall)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		sb.WriteString("\n")
	}
	return strings.TrimRight(sb.String(), "\n") + "\n"
}
