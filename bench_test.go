// Benchmarks regenerating the timed quantities of every table and figure in
// the paper's evaluation (one benchmark family per exhibit; see DESIGN.md's
// per-experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// The workload graphs are the Table II analogues from internal/datasets;
// each benchmark times the same code path the corresponding figure
// measures (preprocessing, online query, matrix powers, ...).
package tpa

import (
	"strconv"
	"sync"
	"testing"

	"tpa/internal/core"
	"tpa/internal/datasets"
	"tpa/internal/eval"
	"tpa/internal/experiments"
	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// benchDataset is the default benchmark graph (the smallest analogue, so
// full method comparisons stay fast).
const benchDataset = "Slashdot"

var (
	benchMu    sync.Mutex
	benchWalks = map[string]*graph.Walk{}
	benchPrep  = map[string]*experiments.Prepared{}
)

func benchWalk(b *testing.B, name string) (*graph.Walk, datasets.Dataset) {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	d, err := datasets.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	if w, ok := benchWalks[name]; ok {
		return w, d
	}
	g, _, err := datasets.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	benchWalks[name] = w
	return w, d
}

func benchPrepared(b *testing.B, method string) (*experiments.Prepared, *graph.Walk) {
	b.Helper()
	w, d := benchWalk(b, benchDataset)
	benchMu.Lock()
	defer benchMu.Unlock()
	if p, ok := benchPrep[method]; ok {
		return p, w
	}
	opt := experiments.DefaultOptions()
	p, err := experiments.PrepareMethod(method, w, d, opt)
	if err != nil {
		b.Fatal(err)
	}
	benchPrep[method] = p
	return p, w
}

// --- Table II: dataset generation ---------------------------------------

func BenchmarkTableIIGenerate(b *testing.B) {
	d, err := datasets.Get(benchDataset)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := d.Generate()
		if g.NumNodes() != d.Nodes {
			b.Fatal("wrong size")
		}
	}
}

// --- Fig 1(a)+(b): preprocessing time (index size reported as a metric) --

func benchPreprocess(b *testing.B, method string) {
	w, d := benchWalk(b, benchDataset)
	opt := experiments.DefaultOptions()
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		p, err := experiments.PrepareMethod(method, w, d, opt)
		if err != nil {
			b.Fatal(err)
		}
		bytes = p.IndexBytes
	}
	b.ReportMetric(float64(bytes), "index-bytes")
}

func BenchmarkFig1PreprocessTPA(b *testing.B)        { benchPreprocess(b, experiments.MethodTPA) }
func BenchmarkFig1PreprocessBearApprox(b *testing.B) { benchPreprocess(b, experiments.MethodBear) }
func BenchmarkFig1PreprocessNBLin(b *testing.B)      { benchPreprocess(b, experiments.MethodNBLin) }
func BenchmarkFig1PreprocessFORA(b *testing.B)       { benchPreprocess(b, experiments.MethodFORA) }
func BenchmarkFig1PreprocessHubPPR(b *testing.B)     { benchPreprocess(b, experiments.MethodHubPPR) }

// --- Fig 1(c): online query time -----------------------------------------

func benchOnline(b *testing.B, method string) {
	p, w := benchPrepared(b, method)
	if p.OOM {
		b.Skipf("%s over memory budget", method)
	}
	seeds := eval.RandomSeeds(w.N(), 16, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Query(seeds[i%len(seeds)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1cOnlineTPA(b *testing.B)        { benchOnline(b, experiments.MethodTPA) }
func BenchmarkFig1cOnlineBRPPR(b *testing.B)      { benchOnline(b, experiments.MethodBRPPR) }
func BenchmarkFig1cOnlineFORA(b *testing.B)       { benchOnline(b, experiments.MethodFORA) }
func BenchmarkFig1cOnlineBearApprox(b *testing.B) { benchOnline(b, experiments.MethodBear) }
func BenchmarkFig1cOnlineHubPPR(b *testing.B)     { benchOnline(b, experiments.MethodHubPPR) }
func BenchmarkFig1cOnlineNBLin(b *testing.B)      { benchOnline(b, experiments.MethodNBLin) }

// --- Fig 3: matrix power fill-in -----------------------------------------

func BenchmarkFig3MatrixPower(b *testing.B) {
	w, _ := benchWalk(b, benchDataset)
	m := graph.NormalizedTranspose(w)
	b.ReportAllocs()
	b.ResetTimer()
	var nnz int64
	for i := 0; i < b.N; i++ {
		p := m.Power(5, 0)
		nnz = p.NNZ()
	}
	b.ReportMetric(float64(nnz), "nnz")
}

// --- Fig 4: column-distance statistic C_i --------------------------------

func BenchmarkFig4ColumnDistance(b *testing.B) {
	opt := experiments.DefaultOptions()
	opt.Seeds = 4
	opt.Datasets = []string{benchDataset}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 6: family drift, real vs random ----------------------------------

func BenchmarkFig6FamilyDrift(b *testing.B) {
	opt := experiments.DefaultOptions()
	opt.Seeds = 4
	opt.Datasets = []string{benchDataset}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 7: top-k recall of TPA against BePI ground truth -----------------

func BenchmarkFig7RecallTPA(b *testing.B) {
	truth, w := benchPrepared(b, experiments.MethodBePI)
	tp, _ := benchPrepared(b, experiments.MethodTPA)
	seeds := eval.RandomSeeds(w.N(), 8, 7)
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		s := seeds[i%len(seeds)]
		exact, err := truth.Query(s)
		if err != nil {
			b.Fatal(err)
		}
		approx, err := tp.Query(s)
		if err != nil {
			b.Fatal(err)
		}
		recall = eval.RecallAtK(exact, approx, 100)
	}
	b.ReportMetric(recall, "recall@100")
}

// --- Fig 8: online time as S varies ---------------------------------------

func BenchmarkFig8SweepS(b *testing.B) {
	w, _ := benchWalk(b, "Pokec")
	cfg := rwr.DefaultConfig()
	for _, s := range []int{2, 4, 6} {
		s := s
		b.Run(benchName("S", s), func(b *testing.B) {
			tp, err := core.Preprocess(w, cfg, core.Params{S: s, T: 10})
			if err != nil {
				b.Fatal(err)
			}
			seeds := eval.RandomSeeds(w.N(), 16, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tp.Query(seeds[i%len(seeds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 9: part errors as T varies ---------------------------------------

func BenchmarkFig9SweepT(b *testing.B) {
	w, _ := benchWalk(b, "Pokec")
	cfg := rwr.DefaultConfig()
	seeds := eval.RandomSeeds(w.N(), 4, 13)
	for _, t := range []int{6, 10, 20} {
		t := t
		b.Run(benchName("T", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := experiments.ApproxPartErrors(w, seeds, cfg, core.Params{S: 5, T: t}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table III: error statistics vs bounds ---------------------------------

func BenchmarkTableIIIPartErrors(b *testing.B) {
	w, d := benchWalk(b, benchDataset)
	cfg := rwr.DefaultConfig()
	seeds := eval.RandomSeeds(w.N(), 4, 17)
	b.ResetTimer()
	var tot float64
	for i := 0; i < b.N; i++ {
		_, _, t, err := experiments.ApproxPartErrors(w, seeds, cfg, core.Params{S: d.S, T: d.T})
		if err != nil {
			b.Fatal(err)
		}
		tot = t
	}
	b.ReportMetric(tot, "tpa-L1-error")
}

// --- Fig 10: TPA vs BePI ---------------------------------------------------

func BenchmarkFig10PreprocessBePI(b *testing.B) { benchPreprocess(b, experiments.MethodBePI) }

func BenchmarkFig10OnlineBePI(b *testing.B) { benchOnline(b, experiments.MethodBePI) }

// --- Core substrate micro-benchmarks (ablation support) --------------------

// BenchmarkCPIIteration times one propagation step, the unit cost of both
// TPA phases (Lemma 4's O(m)).
func BenchmarkCPIIteration(b *testing.B) {
	w, _ := benchWalk(b, benchDataset)
	x := sparse.NewVector(w.N())
	x[0] = 1
	y := sparse.NewVector(w.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulT(x, y)
		x, y = y, x
	}
}

// BenchmarkExactCPI times a full exact RWR solve, the online cost TPA's
// S-step family computation replaces.
func BenchmarkExactCPI(b *testing.B) {
	w, _ := benchWalk(b, benchDataset)
	cfg := rwr.DefaultConfig()
	seeds := eval.RandomSeeds(w.N(), 8, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactRWR(w, seeds[i%len(seeds)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// --- Ablation: error contribution of each approximation phase --------------

func BenchmarkAblation(b *testing.B) {
	opt := experiments.DefaultOptions()
	opt.Seeds = 4
	opt.Datasets = []string{benchDataset}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(opt); err != nil {
			b.Fatal(err)
		}
	}
}
