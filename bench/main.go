// Command bench is this repository's benchmark: one load-generating process
// that runs the real `tpad build` and `tpad serve` as child processes, drives
// the server over HTTP, validates every answer and prints every metric by
// name and unit; a traced pass then replays the request path in-process to
// time each package's public calls. See README.md for the workloads, the
// metrics and how a later change states a claim against them.
//
// It is run through run.sh from the repository root:
//
//	bash bench/run.sh                       # all workloads, measured + traced
//	bash bench/run.sh --workload topk-cold --seed 2 --seconds 10 --trace 0
//	bash bench/run.sh -selfcheck -runs 10   # two sets of runs, compared
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is BENCHMARK.json: the contract later changes are judged by. The
// benchmark reads its metric names, directions and bounds from it, so the
// two cannot drift apart.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result is one run of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"ops_attempted"`
	Failed     int               `json:"ops_failed"`
	Problems   []string          `json:"problems,omitempty"`
	Graph      graphReport       `json:"graph"`
	GraphName  string            `json:"graph_name"`
	FirstSeeds []int             `json:"first_16_request_seeds"`
	Samples    map[string]int    `json:"samples"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	// Extra holds figures that exist on some workloads only, so they are
	// reported but are not part of BENCHMARK.json.
	Extra map[string]metric `json:"extra,omitempty"`
}

// bench is one invocation's settings.
type bench struct {
	host    host
	spec    *spec
	tpad    string
	work    string
	out     string
	seconds float64
	sz      sizing
}

// runOne runs one workload once: the measured pass, then, if trace is set,
// the traced pass on the same inputs.
func (b *bench) runOne(ctx context.Context, w workload, seed int64, trace bool) (*result, error) {
	dir, err := os.MkdirTemp(b.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{tpad: b.tpad, dir: dir, seed: seed, seconds: b.seconds, sz: b.sz, conns: min(2, runtime.NumCPU())}
	m, err := r.measure(ctx, w)
	if err != nil {
		return nil, err
	}
	res := m.result(w, seed, b.seconds)
	if trace {
		spans := filepath.Join(b.out, "trace-"+w.name+".json")
		layers, problems, err := tracePass(ctx, m.in, seed, b.sz, dir, spans, m.checks, m.exact)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		for k, v := range layers {
			res.PerLayer[k] = v
		}
		if f := layers["trace.residual_frac"].Value; w.closeAccount && (f > 0.10 || f < -0.10) {
			problems = append(problems, fmt.Sprintf("self times miss tpa.topk_us by %.1f%% (limit 10%%)", 100*f))
		}
		gbps, mib, met := triad(b.sz.triadBytes, b.host.LLCBytes)
		res.PerLayer["host.triad_gbps"] = metric{gbps, "GB/s"}
		res.PerLayer["host.triad_array_mib"] = metric{mib, "MiB"}
		if !met {
			fmt.Printf("host.triad: arrays capped by available memory, the 4x last-level-cache rule was NOT met\n")
		}
		res.Problems = append(res.Problems, problems...)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// print writes a run's report: every metric by name, with unit and, for the
// timings, the number of samples behind it.
func (res *result) print(sp *spec) {
	fmt.Printf("\n== %s  seed=%d  seconds=%g  graph=%s nodes=%d edges=%d sha256=%s\n", res.Workload, res.Seed,
		res.Seconds, res.GraphName, res.Graph.Nodes, res.Graph.Edges, res.Graph.SHA256)
	fmt.Printf("first 16 request seeds: %v\n", res.FirstSeeds)
	fmt.Printf("end to end (ops_attempted=%d ops_failed=%d):\n", res.Attempted, res.Failed)
	for _, ms := range sp.EndToEnd {
		v := res.EndToEnd[ms.Name]
		line := fmt.Sprintf("  %-28s %14.6g %-6s %s is better, bound %g", ms.Name, v.Value, v.Unit, ms.Better, ms.Bound)
		if n, ok := res.Samples[ms.Name]; ok {
			line += fmt.Sprintf(", %d samples", n)
		}
		fmt.Println(line)
	}
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Println(title)
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	section("per layer:", res.PerLayer)
	section("this workload only:", res.Extra)
	for _, p := range res.Problems {
		fmt.Printf("INVALID: %s\n", p)
	}
}

// driverLine is the last line of standard output when one workload is run.
func (res *result) driverLine(sp *spec, trace bool) (string, error) {
	want, have := sp.EndToEnd, res.EndToEnd
	if trace {
		want, have = sp.PerLayer, res.PerLayer
	}
	metrics := make(map[string]metric, len(want))
	for _, ms := range want {
		v, ok := have[ms.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which this run did not produce", ms.Name)
		}
		if v.Unit != ms.Unit {
			return "", fmt.Errorf("metric %q is in %s, BENCHMARK.json says %s", ms.Name, v.Unit, ms.Unit)
		}
		metrics[ms.Name] = v
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics})
	return string(line), err
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() { os.Exit(run()) }

func run() int {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, directions and bounds")
	workloadName := flag.String("workload", "", "run this workload only and end with the driver's JSON line (default: all)")
	seed := flag.Int64("seed", pinnedSeed, "drives every random choice; 1 is pinned by pins.json, 2 is held out for claims")
	seconds := flag.Float64("seconds", 0, "timed seconds per workload (default: run_seconds of the contract)")
	trace := flag.Int("trace", 1, "1: follow the measured pass with the traced pass and report per-layer metrics; 0: measured pass only")
	tpad := flag.String("tpad", "", "the tpad binary under test (run.sh builds it)")
	work := flag.String("work", ".bench_build", "directory for everything a run writes")
	out := flag.String("out", "", "directory for reports and span files (default: <work>/results)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload -runs times, twice, and compare the two sets by the contract's bounds")
	runs := flag.Int("runs", 10, "runs per workload and set for -selfcheck, each with another seed")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *tpad == "" {
		fmt.Fprintln(os.Stderr, "bench: -tpad is required; run bench/run.sh, which builds it")
		return 2
	}
	b := &bench{spec: sp, tpad: *tpad, work: *work, out: *out, seconds: *seconds, sz: fullSize}
	if b.seconds <= 0 {
		b.seconds = float64(sp.RunSeconds)
	}
	if b.out == "" {
		b.out = filepath.Join(b.work, "results")
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b.host = probeHost()
	fmt.Println(b.host)
	all := workloads(b.sz)
	fail := func(w workload, err error) int {
		// The error carries the child's stderr; keep it where a later look
		// will find it.
		log := filepath.Join(b.out, "failed-"+w.name+".log")
		_ = os.WriteFile(log, []byte(err.Error()+"\n"), 0o644) // the message below is the fallback
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n(also saved to %s)\n", w.name, err, log)
		return 1
	}

	switch {
	case *selfcheck:
		return b.selfcheck(ctx, all, *seed, *runs, fail)
	case *workloadName != "":
		for _, w := range all {
			if w.name != *workloadName {
				continue
			}
			res, err := b.runOne(ctx, w, *seed, *trace == 1)
			if err != nil {
				return fail(w, err)
			}
			res.print(sp)
			line, err := res.driverLine(sp, *trace == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println(line)
			return 0
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}

	report := struct {
		Host    host      `json:"host"`
		Claim   *string   `json:"claim"` // this report defines the instrument; it claims no gain
		Results []*result `json:"results"`
	}{Host: b.host}
	code := 0
	for _, w := range all {
		res, err := b.runOne(ctx, w, *seed, *trace == 1)
		if err != nil {
			return fail(w, err)
		}
		res.print(sp)
		if !res.Correct {
			code = 1
		}
		report.Results = append(report.Results, res)
	}
	path := filepath.Join(b.out, "baseline.json")
	if err := writeJSON(path, report); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nreport written to %s\n", path)
	return code
}

// comparison is one end-to-end metric of one workload across the two sets
// of a self-check.
type comparison struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Unit      string    `json:"unit"`
	Better    string    `json:"better"`
	Bound     float64   `json:"bound"`
	A         []float64 `json:"a"`
	B         []float64 `json:"b"`
	MedianA   float64   `json:"median_a"`
	MedianB   float64   `json:"median_b"`
	SpreadA   float64   `json:"spread_a"` // (Q3−Q1)/median
	SpreadB   float64   `json:"spread_b"`
	Worsening float64   `json:"worsening_b_vs_a"`
	OK        bool      `json:"ok"`
}

// compare applies the acceptance rule to two sets of values of one metric:
// the second median may not be worse than the first by more than the bound,
// and (except for set-up time, whose spread is not judged) neither set's
// interquartile spread may exceed it.
func compare(ms metricSpec, a, b []float64) comparison {
	c := comparison{Metric: ms.Name, Unit: ms.Unit, Better: ms.Better, Bound: ms.Bound, A: a, B: b,
		MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	c.Worsening = worsening(ms.Better, c.MedianA, c.MedianB)
	c.OK = c.Worsening <= ms.Bound && (ms.Name == "setup_s" || (c.SpreadA <= ms.Bound && c.SpreadB <= ms.Bound))
	return c
}

// selfcheck runs the measured pass of every workload runs times with seeds
// seed, seed+1, …, then does it all again, and compares the two sets the way
// the driver compares a change with its parent. Same code on both sides, so
// anything it flags is the instrument's own noise.
func (b *bench) selfcheck(ctx context.Context, all []workload, seed int64, runs int, fail func(workload, error) int) int {
	values := map[string][2][]float64{} // "workload/metric" → set A, set B
	for side := 0; side < 2; side++ {
		for i := 0; i < runs; i++ {
			for _, w := range all {
				res, err := b.runOne(ctx, w, seed+int64(i), false)
				if err != nil {
					return fail(w, err)
				}
				if !res.Correct {
					res.print(b.spec)
					return fail(w, errors.New("run was not valid"))
				}
				fmt.Printf("set %c run %d %s:", 'A'+side, i+1, w.name)
				for _, ms := range b.spec.EndToEnd {
					key := w.name + "/" + ms.Name
					v := values[key]
					v[side] = append(v[side], res.EndToEnd[ms.Name].Value)
					values[key] = v
					fmt.Printf(" %s=%.5g", ms.Name, res.EndToEnd[ms.Name].Value)
				}
				fmt.Println()
			}
		}
	}
	report := struct {
		Host        host         `json:"host"`
		Seconds     float64      `json:"seconds"`
		Runs        int          `json:"runs_per_set"`
		FirstSeed   int64        `json:"first_seed"`
		OK          bool         `json:"ok"`
		Comparisons []comparison `json:"comparisons"`
	}{Host: b.host, Seconds: b.seconds, Runs: runs, FirstSeed: seed, OK: true}
	fmt.Printf("\n%-15s %-15s %12s %12s %8s %8s %9s %6s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "worsening", "bound")
	for _, w := range all {
		for _, ms := range b.spec.EndToEnd {
			v := values[w.name+"/"+ms.Name]
			c := compare(ms, v[0], v[1])
			c.Workload = w.name
			verdict := ""
			if !c.OK {
				verdict = "  FAIL"
				report.OK = false
			}
			fmt.Printf("%-15s %-15s %12.5g %12.5g %8.4f %8.4f %9.4f %6.2f%s\n", w.name, ms.Name,
				c.MedianA, c.MedianB, c.SpreadA, c.SpreadB, c.Worsening, c.Bound, verdict)
			report.Comparisons = append(report.Comparisons, c)
		}
	}
	path := filepath.Join(b.out, "selfcheck.json")
	if err := writeJSON(path, report); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nself-check written to %s\n", path)
	if !report.OK {
		return 1
	}
	return 0
}
