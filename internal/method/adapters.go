package method

import (
	"context"
	"fmt"
	"time"

	"tpa/internal/bear"
	"tpa/internal/bippr"
	"tpa/internal/brppr"
	"tpa/internal/core"
	"tpa/internal/fastppr"
	"tpa/internal/fora"
	"tpa/internal/graph"
	"tpa/internal/hubppr"
	"tpa/internal/mc"
	"tpa/internal/nblin"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Adapter conventions, shared by every type in this file:
//
//   - The concrete adapter types are exported with their tunables as public
//     fields so callers with domain knowledge (the experiment harness, the
//     arena) can configure an instance between New and Preprocess; the zero
//     value of every field derives the engine package's defaults from the
//     graph at Preprocess time.
//   - cfg.C is the platform-wide restart probability: adapters overwrite
//     any per-package C option with it, so every method answers the same
//     RWR problem the TPA engine answers.
//   - Declared bounds (Stats().Bound): deterministic methods report their
//     analytic bound; sampling and truncating methods report the envelope
//     their defaults meet at conformance scale (a few hundred to a few
//     thousand nodes, the scale conformance_test.go pins). The constants
//     below are deliberately generous — they are contracts, not records.

func init() {
	Register(TPA, func() Method { return &TPAMethod{} })
	Register(Exact, func() Method { return &ExactMethod{} })
	Register(MC, func() Method { return &MCMethod{} })
	Register(Bear, func() Method { return &BearMethod{} })
	Register(BePI, func() Method { return &BePIMethod{} })
	Register(FORA, func() Method { return &FORAMethod{} })
	Register(HubPPR, func() Method { return &HubPPRMethod{} })
	Register(FastPPR, func() Method { return &FastPPRMethod{} })
	Register(BiPPR, func() Method { return &BiPPRMethod{} })
	Register(BRPPR, func() Method { return &BRPPRMethod{} })
	Register(NBLin, func() Method { return &NBLinMethod{} })
}

// ---------------------------------------------------------------- TPA

// TPAMethod adapts the paper's own engine (internal/core).
type TPAMethod struct {
	// Params are the S/T split points; the zero value uses
	// core.DefaultParams() (S=5, T=10).
	Params core.Params
	// Workers shards the preprocessing matvec (0 = GOMAXPROCS).
	Workers int

	tp    *core.TPA
	stats Stats
}

func (m *TPAMethod) Name() string { return TPA }

func (m *TPAMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	p := m.Params
	if p.S == 0 && p.T == 0 {
		p = core.DefaultParams()
	}
	start := time.Now()
	tp, err := core.PreprocessParallel(w, cfg, p, m.Workers)
	if err != nil {
		return fmt.Errorf("method %s: %w", TPA, err)
	}
	m.tp = tp
	m.stats = Stats{IndexBytes: tp.IndexBytes(), PreprocessTime: time.Since(start), Bound: tp.ErrorBound()}
	return nil
}

func (m *TPAMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.tp == nil {
		return nil, QueryMeta{}, notPrepared(TPA)
	}
	r, err := m.tp.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{Work: m.tp.Params().S - 1}, nil
}

func (m *TPAMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	if m.tp == nil {
		return nil, QueryMeta{}, notPrepared(TPA)
	}
	top, _, err := m.tp.TopKDeadline(context.Background(), []int{seed}, k, nil)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return top, QueryMeta{Work: m.tp.Params().S - 1}, nil
}

func (m *TPAMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- Exact

// ExactMethod adapts cumulative power iteration run to convergence — the
// ground truth every approximate method is judged against. No preprocessing
// phase, no index; each query costs ~log_{1-c}(ε/c) propagation steps.
type ExactMethod struct {
	walk  *graph.Walk
	cfg   rwr.Config
	stats Stats
}

func (m *ExactMethod) Name() string { return Exact }

func (m *ExactMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("method %s: %w", Exact, err)
	}
	m.walk, m.cfg = w, cfg
	// The iteration stops when the step's added mass c(1-c)^i drops below
	// ε; the truncated tail is the same order, declared with slack.
	m.stats = Stats{Bound: 100 * cfg.Eps}
	return nil
}

func (m *ExactMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.walk == nil {
		return nil, QueryMeta{}, notPrepared(Exact)
	}
	r, err := core.ExactRWR(m.walk, seed, m.cfg)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{Work: m.cfg.IterBound()}, nil
}

func (m *ExactMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *ExactMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- MC

// MCMethod adapts plain Monte-Carlo estimation: Walks terminated random
// walks from the seed, the empirical terminal distribution as the answer.
type MCMethod struct {
	// Walks per query; 0 uses the default below.
	Walks int
	// Seed is the PRNG seed (0 → 1, so runs are reproducible by default).
	Seed int64

	wk    *mc.Walker
	stats Stats
}

// defaultMCWalks is the per-query walk count when MCMethod.Walks is 0:
// enough for an L1 error well under defaultMCBound at conformance scale.
const defaultMCWalks = 100_000

// defaultMCBound is the declared empirical L1 envelope of defaultMCWalks
// walks at conformance scale.
const defaultMCBound = 0.15

func (m *MCMethod) Name() string { return MC }

func (m *MCMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	if m.Walks == 0 {
		m.Walks = defaultMCWalks
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	wk, err := mc.NewWalker(w, cfg.C, m.Seed)
	if err != nil {
		return fmt.Errorf("method %s: %w", MC, err)
	}
	m.wk = wk
	m.stats = Stats{Bound: defaultMCBound}
	return nil
}

func (m *MCMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.wk == nil {
		return nil, QueryMeta{}, notPrepared(MC)
	}
	r, err := m.wk.Estimate(seed, m.Walks)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{Work: m.Walks}, nil
}

func (m *MCMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *MCMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- BEAR

// BearMethod adapts BEAR-APPROX: block elimination with drop-sparsified
// precomputed inverses.
type BearMethod struct {
	// Opts are BEAR's knobs; the zero value uses bear.DefaultOptions(n)
	// (drop tolerance n^(-1/2), blocks ≤ 200 nodes).
	Opts bear.Options

	b     *bear.Bear
	stats Stats
}

// defaultBearBound is the declared empirical L1 envelope of the default
// n^(-1/2) drop tolerance at conformance scale.
const defaultBearBound = 0.35

func (m *BearMethod) Name() string { return Bear }

func (m *BearMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (bear.Options{}) {
		o = bear.DefaultOptions(w.N())
	}
	start := time.Now()
	b, err := bear.Preprocess(w, cfg, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", Bear, err)
	}
	m.b = b
	m.stats = Stats{IndexBytes: b.IndexBytes(), PreprocessTime: time.Since(start), Bound: defaultBearBound}
	return nil
}

func (m *BearMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.b == nil {
		return nil, QueryMeta{}, notPrepared(Bear)
	}
	r, err := m.b.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{}, nil
}

func (m *BearMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *BearMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- BePI

// BePIMethod adapts BePI: exact block elimination with an iterative Schur
// solve — the paper's ground-truth method at scale.
type BePIMethod struct {
	// Opts as for BearMethod; BePI ignores DropTol (it is exact).
	Opts bear.Options

	b     *bear.BePI
	stats Stats
}

func (m *BePIMethod) Name() string { return BePI }

func (m *BePIMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (bear.Options{}) {
		o = bear.DefaultOptions(w.N())
	}
	start := time.Now()
	b, err := bear.PreprocessBePI(w, cfg, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", BePI, err)
	}
	m.b = b
	// Exact up to the inner iterative tolerance.
	m.stats = Stats{IndexBytes: b.IndexBytes(), PreprocessTime: time.Since(start), Bound: 1e-4}
	return nil
}

func (m *BePIMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.b == nil {
		return nil, QueryMeta{}, notPrepared(BePI)
	}
	r, err := m.b.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{}, nil
}

func (m *BePIMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *BePIMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- FORA

// FORAMethod adapts FORA+ : forward push with early termination plus
// compensating indexed random walks.
type FORAMethod struct {
	// Opts are FORA's quality parameters; the zero value uses
	// fora.DefaultOptions(n) ((δ, p_f, ε) = (1/n, 1/n, 0.5), indexed).
	// C is always overwritten with cfg.C.
	Opts fora.Options

	f     *fora.FORA
	stats Stats
}

// defaultFORABound is the declared empirical L1 envelope of FORA's default
// parameters at conformance scale (the analytic guarantee is per-entry
// relative error, far tighter than this L1 envelope in practice).
const defaultFORABound = 0.1

func (m *FORAMethod) Name() string { return FORA }

func (m *FORAMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (fora.Options{}) {
		o = fora.DefaultOptions(w.N())
	}
	o.C = cfg.C
	start := time.Now()
	f, err := fora.Preprocess(w, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", FORA, err)
	}
	m.f = f
	m.stats = Stats{IndexBytes: f.IndexBytes(), PreprocessTime: time.Since(start), Bound: defaultFORABound}
	return nil
}

func (m *FORAMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.f == nil {
		return nil, QueryMeta{}, notPrepared(FORA)
	}
	r, err := m.f.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{}, nil
}

func (m *FORAMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *FORAMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- HubPPR

// HubPPRMethod adapts HubPPR: bidirectional estimation with hub-indexed
// forward walks and backward pushes. Full-vector queries issue one pair
// estimate per target (the mode the paper benchmarks), so they are
// expensive on large graphs.
type HubPPRMethod struct {
	// Opts as hubppr.DefaultOptions(n) when zero; C is overwritten with
	// cfg.C.
	Opts hubppr.Options

	h     *hubppr.HubPPR
	stats Stats
}

// defaultHubPPRBound is the declared empirical L1 envelope of HubPPR's
// default parameters at conformance scale.
const defaultHubPPRBound = 0.15

func (m *HubPPRMethod) Name() string { return HubPPR }

func (m *HubPPRMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (hubppr.Options{}) {
		o = hubppr.DefaultOptions(w.N())
	}
	o.C = cfg.C
	start := time.Now()
	h, err := hubppr.Preprocess(w, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", HubPPR, err)
	}
	m.h = h
	m.stats = Stats{IndexBytes: h.IndexBytes(), PreprocessTime: time.Since(start), Bound: defaultHubPPRBound}
	return nil
}

func (m *HubPPRMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.h == nil {
		return nil, QueryMeta{}, notPrepared(HubPPR)
	}
	r, err := m.h.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return r, QueryMeta{Work: m.h.Walks()}, nil
}

func (m *HubPPRMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *HubPPRMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- FAST-PPR

// FastPPRMethod adapts FAST-PPR. The engine is single-pair; the adapter
// materializes a full vector with one Pair estimate per target, which is
// O(n) backward pushes per query — fine for validation and small graphs,
// prohibitive at serving scale (exactly the shape the paper's related-work
// section criticizes).
type FastPPRMethod struct {
	// Opts as fastppr.DefaultOptions(n) when zero; C is overwritten with
	// cfg.C.
	Opts fastppr.Options

	f     *fastppr.FASTPPR
	n     int
	stats Stats
}

// defaultFastPPRBound is the declared empirical L1 envelope at conformance
// scale. FAST-PPR only guarantees detection above δ = 4/n, so its
// full-vector answers are the loosest of the pair methods.
const defaultFastPPRBound = 0.6

func (m *FastPPRMethod) Name() string { return FastPPR }

func (m *FastPPRMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (fastppr.Options{}) {
		o = fastppr.DefaultOptions(w.N())
	}
	o.C = cfg.C
	start := time.Now()
	f, err := fastppr.New(w, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", FastPPR, err)
	}
	m.f, m.n = f, w.N()
	m.stats = Stats{PreprocessTime: time.Since(start), Bound: defaultFastPPRBound}
	return nil
}

func (m *FastPPRMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.f == nil {
		return nil, QueryMeta{}, notPrepared(FastPPR)
	}
	if err := rwr.CheckSeed(FastPPR, seed, m.n); err != nil {
		return nil, QueryMeta{}, err
	}
	r := sparse.NewVector(m.n)
	for t := 0; t < m.n; t++ {
		est, err := m.f.Pair(seed, t)
		if err != nil {
			return nil, QueryMeta{}, err
		}
		r[t] = est
	}
	return r, QueryMeta{Work: m.f.Walks() * m.n}, nil
}

func (m *FastPPRMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *FastPPRMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- BiPPR

// BiPPRMethod adapts BiPPR, the index-free bidirectional original. Like
// FAST-PPR it is single-pair; full-vector queries cost O(n) backward
// pushes.
type BiPPRMethod struct {
	// Opts as bippr.DefaultOptions(n) when zero; C is overwritten with
	// cfg.C.
	Opts bippr.Options

	b     *bippr.BiPPR
	n     int
	stats Stats
}

// defaultBiPPRBound is the declared empirical L1 envelope at conformance
// scale.
const defaultBiPPRBound = 0.15

func (m *BiPPRMethod) Name() string { return BiPPR }

func (m *BiPPRMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (bippr.Options{}) {
		o = bippr.DefaultOptions(w.N())
	}
	o.C = cfg.C
	start := time.Now()
	b, err := bippr.New(w, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", BiPPR, err)
	}
	m.b, m.n = b, w.N()
	m.stats = Stats{PreprocessTime: time.Since(start), Bound: defaultBiPPRBound}
	return nil
}

func (m *BiPPRMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.b == nil {
		return nil, QueryMeta{}, notPrepared(BiPPR)
	}
	if err := rwr.CheckSeed(BiPPR, seed, m.n); err != nil {
		return nil, QueryMeta{}, err
	}
	r := sparse.NewVector(m.n)
	for t := 0; t < m.n; t++ {
		est, err := m.b.Pair(seed, t)
		if err != nil {
			return nil, QueryMeta{}, err
		}
		r[t] = est
	}
	return r, QueryMeta{Work: m.b.Walks() * m.n}, nil
}

func (m *BiPPRMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *BiPPRMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- BRPPR

// BRPPRMethod adapts boundary-restricted PPR through its prepared handle:
// no index, but reusable O(n) scratch (see brppr.New). Its answers are
// substochastic by design — up to κ of rank mass stays parked on the
// frontier.
type BRPPRMethod struct {
	// Opts as brppr.DefaultOptions() when zero; C and Eps are overwritten
	// with cfg's values.
	Opts brppr.Options

	b     *brppr.BRPPR
	stats Stats
}

// defaultBRPPRBound is the declared empirical L1 envelope of the default
// (expand, κ) thresholds: truncation error well above the κ = 1e-3 parked
// mass itself, since sub-threshold frontier nodes also stop propagating —
// and the truncated tail grows with graph size (≈0.03 at 300 nodes, ≈0.14
// at 10k), so the envelope carries headroom for larger graphs.
const defaultBRPPRBound = 0.3

func (m *BRPPRMethod) Name() string { return BRPPR }

func (m *BRPPRMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (brppr.Options{}) {
		o = brppr.DefaultOptions()
	}
	o.C = cfg.C
	o.Eps = cfg.Eps
	start := time.Now()
	b, err := brppr.New(w, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", BRPPR, err)
	}
	m.b = b
	m.stats = Stats{PreprocessTime: time.Since(start), Bound: defaultBRPPRBound}
	return nil
}

func (m *BRPPRMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.b == nil {
		return nil, QueryMeta{}, notPrepared(BRPPR)
	}
	res, err := m.b.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	return res.Scores, QueryMeta{Work: res.Rounds, Substochastic: true}, nil
}

func (m *BRPPRMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *BRPPRMethod) Stats() Stats { return m.stats }

// ---------------------------------------------------------------- NB-LIN

// NBLinMethod adapts NB-LIN: per-partition dense inverses plus a low-rank
// approximation of the cross-partition coupling.
type NBLinMethod struct {
	// Opts as nblin.DefaultOptions(n) when zero.
	Opts nblin.Options

	nb    *nblin.NBLin
	stats Stats
}

// defaultNBLinBound is the declared empirical L1 envelope of the default
// low-rank approximation. Deliberately loose: at a fixed rank the
// cross-partition reconstruction error grows with graph size (≈0.1 at 300
// nodes, ≈0.65 at 10k), so NB-LIN declares the weakest guarantee in the
// registry — the arena reports its measured L1 alongside it.
const defaultNBLinBound = 1.0

func (m *NBLinMethod) Name() string { return NBLin }

func (m *NBLinMethod) Preprocess(w *graph.Walk, cfg rwr.Config) error {
	o := m.Opts
	if o == (nblin.Options{}) {
		o = nblin.DefaultOptions(w.N())
	}
	start := time.Now()
	nb, err := nblin.Preprocess(w, cfg, o)
	if err != nil {
		return fmt.Errorf("method %s: %w", NBLin, err)
	}
	m.nb = nb
	m.stats = Stats{IndexBytes: nb.IndexBytes(), PreprocessTime: time.Since(start), Bound: defaultNBLinBound}
	return nil
}

func (m *NBLinMethod) Query(seed int) (sparse.Vector, QueryMeta, error) {
	if m.nb == nil {
		return nil, QueryMeta{}, notPrepared(NBLin)
	}
	r, err := m.nb.Query(seed)
	if err != nil {
		return nil, QueryMeta{}, err
	}
	// The low-rank cross-partition term can reconstruct slightly negative
	// scores; clamp so the Method contract (scores ≥ 0) holds. Anything
	// beyond tiny negatives shows up as L1 error against the bound.
	for i, v := range r {
		if v < 0 {
			r[i] = 0
		}
	}
	return r, QueryMeta{}, nil
}

func (m *NBLinMethod) TopK(seed, k int) ([]sparse.Entry, QueryMeta, error) {
	return topKViaQuery(m, seed, k)
}

func (m *NBLinMethod) Stats() Stats { return m.stats }
