// Command tpad builds TPA snapshots and serves queries over HTTP:
//
//	tpad build -graph edges.tsv [-o edges.tpam] [-s 5 -t 10 -c 0.15]
//	           [-precision 32] [-shards N]
//	tpad serve -graphs snapshots/ [-addr :8080] [-cache 4096] [-max-inflight 256]
//	tpad serve -graph edges.tsv|snapshot.tpam [...]
//	tpad mutate -graph name [-add u,v]... [-remove u,v]... [-file f | -watch f]
//
// build runs preprocessing once and writes a memory-mappable TPAM snapshot
// of the graph and its index (.tpam); serve -graphs loads every snapshot
// and edge list in a directory as a named graph, so one process answers
// /graphs/{name}/… for all of them — snapshots cold-start by mapping the
// file, with no edge-list parsing and no re-preprocessing. Graphs registered from files are
// hot-reloadable via POST /graphs/{name}/reload, which rebuilds from the
// file and atomically swaps the engine with zero dropped queries.
//
// -workers sizes the /batch worker pool (dense matvecs fan out over the
// walk's row blocks, one per CPU or per shard); -cache bounds each graph's
// LRU top-k cache partition; -max-inflight sheds load with 503 beyond that
// many concurrent queries. SIGINT/SIGTERM drain in-flight requests before
// exiting. See docs/API.md for the endpoint reference and the snapshot
// format spec.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tpa"
	"tpa/internal/ingest"
	"tpa/internal/server"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "build":
		err = cmdBuild(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "mutate":
		err = cmdMutate(args[1:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tpad: unknown subcommand %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpad: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tpad build -graph <edges.tsv> [-o <out.tpam>] [-s 5] [-t 10] [-c 0.15] [-eps 1e-9]
             [-precision 64|32] [-shards N]
  tpad serve -graphs <dir>      [-addr :8080] [serving flags]
  tpad serve -graph <edges.tsv|snapshot> [-addr :8080] [serving flags]
  tpad mutate -graph <name>     [-server URL] [-add u,v]... [-remove u,v]... [-file f]
  tpad mutate -graph <name>     [-server URL] -watch <file> [-interval 1s]

serving flags: -workers N -cache N -max-inflight N -max-batch N -default-deadline D
               -c -eps -s -t -precision
build writes a memory-mappable TPAM snapshot (zero-copy cold start); serve
-graph loads any file that starts with "TPA" as one, whatever its name. -shards N
builds a scatter-gather engine over N community-aligned shards, the one node
layout a build can choose (node ids stay external); -mmap is
accepted and ignored. Synthetic inputs come from cmd/graphgen.
mutate posts edge batches to a running server's POST /graphs/{name}/edges;
-watch follows a growing mutation file ("+ u v" / "- u v" lines) until ^C.`)
}

func tpaOpts(fs *flag.FlagSet) *tpa.Options {
	o := tpa.Defaults()
	fs.Float64Var(&o.C, "c", o.C, "restart probability")
	fs.Float64Var(&o.Eps, "eps", o.Eps, "convergence tolerance")
	fs.IntVar(&o.S, "s", o.S, "neighbor-part start iteration S")
	fs.IntVar(&o.T, "t", o.T, "stranger-part start iteration T")
	fs.Var(precFlag{&o.Precision}, "precision", "index storage precision: 64 (default) or 32 (half the index, ~1e-4 accuracy cost)")
	return &o
}

// precFlag adapts tpa.Precision to the flag package, so "-precision 32"
// fails at parse time instead of deep inside engine construction.
type precFlag struct{ p *tpa.Precision }

func (f precFlag) String() string {
	if f.p == nil {
		return ""
	}
	return f.p.String()
}

func (f precFlag) Set(s string) error {
	p, err := tpa.ParsePrecision(s)
	if err != nil {
		return err
	}
	*f.p = p
	return nil
}

// cmdBuild runs the one-off preprocessing phase and writes the TPAM
// snapshot, the artifact "tpad serve" cold-starts from.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required, .gz supported)")
	out := fs.String("o", "", "output snapshot file (default: graph path with .tpam extension)")
	shards := fs.Int("shards", 0, "partition into N community-aligned shards and scatter-gather preprocessing and dense query hops across them (0/1 = unsharded)")
	fs.Bool("mmap", false, "ignored: every snapshot is memory-mappable TPAM (kept so older build scripts still run)")
	o := tpaOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("build: -graph is required")
	}
	dest := *out
	if dest == "" {
		name, _ := stem(*graphPath)
		dest = name + ".tpam"
	}
	start := time.Now()
	g, err := tpa.LoadGraph(*graphPath)
	if err != nil {
		return fmt.Errorf("build: loading graph: %w", err)
	}
	loadT := time.Since(start)
	start = time.Now()
	var eng *tpa.Engine
	if *shards > 1 {
		eng, err = tpa.NewSharded(g, *shards, *o)
	} else {
		eng, err = tpa.New(g, *o)
	}
	if err != nil {
		return fmt.Errorf("build: preprocessing: %w", err)
	}
	prepT := time.Since(start)
	if err := eng.SaveSnapshotMmap(dest); err != nil {
		return fmt.Errorf("build: writing snapshot: %w", err)
	}
	st, err := os.Stat(dest)
	if err != nil {
		return err
	}
	s, t := eng.Params()
	extras := ""
	if eng.Precision() == tpa.Float32 {
		extras += " precision=float32"
	}
	if n := eng.NumShards(); n > 1 {
		extras += fmt.Sprintf(" shards=%d", n)
	}
	fmt.Printf("built %s: %d nodes / %d edges (S=%d T=%d%s), %d bytes\n",
		dest, g.NumNodes(), g.NumEdges(), s, t, extras, st.Size())
	fmt.Printf("  parse %v, preprocess %v — serve cold-starts skip both\n",
		loadT.Round(time.Millisecond), prepT.Round(time.Millisecond))
	return nil
}

// stem strips an optional ".gz" and then the extension: "edges.tsv.gz" →
// "edges". It is the one rule mapping file names to graph names, shared by
// the `build` output default and the `serve -graphs` registry, so the two
// always agree on which snapshot corresponds to which edge list.
func stem(path string) (name, ext string) {
	base := strings.TrimSuffix(path, ".gz")
	ext = filepath.Ext(base)
	return strings.TrimSuffix(base, ext), ext
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	graphsDir := fs.String("graphs", "", "directory of snapshots (.tpam) and edge lists to serve as named graphs; on a shared stem the snapshot wins")
	graphPath := fs.String("graph", "", "single edge-list or snapshot file")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "goroutines for the /batch fan-out (0 = all CPUs)")
	cacheSize := fs.Int("cache", 4096, "top-k LRU cache entries per graph (0 disables caching)")
	maxInflight := fs.Int("max-inflight", 256, "concurrent query requests before shedding 503s (0 = unlimited)")
	maxBatch := fs.Int("max-batch", 4096, "max seeds per /batch or /queryset request (0 = unlimited)")
	defaultDeadline := fs.Duration("default-deadline", 0, "per-query budget when no X-TPA-Deadline-Ms header is sent; expired queries return partial answers (0 = none)")
	walRoot := fs.String("wal", "", "directory for durable ingestion: per-graph write-ahead logs and compacted snapshots; replayed on boot")
	fsyncMode := fs.String("fsync", "batch", "WAL durability: always (fsync per batch, before the ack), batch (fsync at most every 50ms on appends, and by the time a batch is applied), off")
	ingestQueue := fs.Int("ingest-queue", 1024, "bounded ingest queue capacity in edge events")
	ingestMode := fs.String("ingest-mode", "block", "backpressure when the ingest queue is full: block, drop, or reject (429)")
	batchEdges := fs.Int("ingest-batch-edges", 4096, "max edges coalesced into one apply batch")
	batchAge := fs.Duration("ingest-batch-age", 25*time.Millisecond, "max time an admitted edge event waits before its batch is applied")
	compactWALBytes := fs.Int64("compact-wal-bytes", 128<<20, "auto-compact (rewrite the snapshot and truncate the WAL) when live WAL bytes exceed this (0 = off)")
	o := tpaOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.Workers = *workers
	if (*graphsDir == "") == (*graphPath == "") {
		return fmt.Errorf("serve: exactly one of -graphs or -graph is required")
	}
	var ing *ingestSetup
	if *walRoot != "" {
		fsync, err := ingest.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		mode, err := ingest.ParseMode(*ingestMode)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		ing = &ingestSetup{
			root: *walRoot,
			wal:  ingest.WALOptions{Fsync: fsync},
			queue: ingest.Options{
				QueueSize:       *ingestQueue,
				MaxBatchEdges:   *batchEdges,
				MaxBatchAge:     *batchAge,
				Mode:            mode,
				CompactWALBytes: *compactWALBytes,
			},
		}
	}

	h := server.NewRegistry(server.Options{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		MaxInFlight:     *maxInflight,
		MaxBatch:        *maxBatch,
		DefaultDeadline: *defaultDeadline,
	})
	if *graphsDir != "" {
		if err := registerDir(h, *graphsDir, *o, ing); err != nil {
			return err
		}
	} else {
		if err := h.RegisterLoader("default", ing.wrap("default", singleLoader(*graphPath, *o))); err != nil {
			return err
		}
		if err := h.SetDefault("default"); err != nil {
			return err
		}
	}
	names := h.GraphNames()
	if len(names) == 0 {
		return fmt.Errorf("serve: no graphs registered from %s", *graphsDir)
	}
	if err := ing.enable(h, names); err != nil {
		return err
	}
	log.Printf("tpad: serving %d graph(s) on %s: %s", len(names), *addr, strings.Join(names, ", "))

	srv := &http.Server{Addr: *addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		h.Close()
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("tpad: signal received, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("tpad: shutdown: %v", err)
	}
	// Close after the HTTP drain: the ingest pipelines flush their queues,
	// fsync and close the WALs, so a clean exit leaves nothing to replay.
	if err := h.Close(); err != nil {
		log.Printf("tpad: closing ingest pipelines: %v", err)
	}
	log.Printf("tpad: bye")
	return nil
}

// ingestSetup carries the -wal/-fsync/-ingest-*/-compact-* serve flags. A
// nil setup (no -wal) leaves loaders and registration untouched.
type ingestSetup struct {
	root  string
	wal   ingest.WALOptions
	queue ingest.Options
}

// walDir is the per-graph WAL segment directory under the -wal root.
func (s *ingestSetup) walDir(name string) string { return filepath.Join(s.root, name) }

// snapPath is the per-graph compacted TPAM snapshot auto-compaction
// rewrites; boot prefers it over the originally registered source.
func (s *ingestSetup) snapPath(name string) string { return filepath.Join(s.root, name+".tpam") }

// wrap makes a loader durable: prefer the compacted snapshot, then replay
// the graph's WAL on top, so a restarted server resumes exactly where the
// log ends — including after kill -9 mid-ingest.
func (s *ingestSetup) wrap(name string, base server.Loader) server.Loader {
	if s == nil {
		return base
	}
	walDir, snapPath := s.walDir(name), s.snapPath(name)
	return func() (server.Engine, server.Info, error) {
		var eng *tpa.Engine
		var info server.Info
		if _, err := os.Stat(snapPath); err == nil {
			eng, err = tpa.LoadSnapshotMmap(snapPath)
			if err != nil {
				return nil, server.Info{}, fmt.Errorf("loading compacted snapshot %s: %w", snapPath, err)
			}
			info = engineInfo(eng, snapPath)
			log.Printf("tpad: %s: cold-started from compacted snapshot %s", name, snapPath)
		} else {
			bEng, bInfo, err := base()
			if err != nil {
				return nil, server.Info{}, err
			}
			te, ok := bEng.(*tpa.Engine)
			if !ok {
				return nil, server.Info{}, fmt.Errorf("graph %q is served by a %T, which does not support durable ingestion", name, bEng)
			}
			eng, info = te, bInfo
		}
		replayed, stats, err := eng.ReplayWAL(walDir)
		if err != nil {
			return nil, server.Info{}, err
		}
		if stats.Records > 0 {
			log.Printf("tpad: %s: replayed %d WAL record(s) across %d segment(s) (%d edges in %d batches)",
				name, stats.Records, stats.Segments, stats.Edges, stats.Applies)
		}
		if stats.Truncated {
			log.Printf("tpad: %s: WAL tail torn (%v); resuming from the last durable record", name, stats.TailError)
		}
		info.Nodes, info.Edges = replayed.NumNodes(), replayed.NumEdges()
		return replayed, info, nil
	}
}

// enable turns on the durable write pipeline for every registered graph.
func (s *ingestSetup) enable(h *server.Handler, names []string) error {
	if s == nil {
		return nil
	}
	for _, name := range names {
		cfg := server.IngestConfig{
			Dir:          s.walDir(name),
			WAL:          s.wal,
			Queue:        s.queue,
			SnapshotPath: s.snapPath(name),
		}
		if err := h.EnableIngest(name, cfg); err != nil {
			return fmt.Errorf("serve: enabling ingest for %q: %w", name, err)
		}
	}
	return nil
}

// singleLoader rebuilds the engine for the single-graph mode: a snapshot if
// the file is one (see isSnapshot), otherwise edge list + preprocessing.
func singleLoader(graphPath string, o tpa.Options) server.Loader {
	if isSnapshot(graphPath) {
		return snapshotLoader(graphPath)
	}
	return edgeListLoader(graphPath, o)
}

// snapshotPrefix starts every binary file this project has written, so it
// tells a snapshot from an edge list (which starts with a digit or a
// comment) whatever the file is called.
const snapshotPrefix = "TPA"

// isSnapshot reports whether path starts with snapshotPrefix. A file that
// cannot be read is not one; the edge-list loader then reports why.
func isSnapshot(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	b := make([]byte, len(snapshotPrefix))
	_, err = io.ReadFull(f, b)
	return err == nil && string(b) == snapshotPrefix
}

// snapshotLoader cold-starts from a TPAM snapshot: no edge-list parse, no
// preprocessing. A snapshot in any older format fails with ErrBadSnapshot.
func snapshotLoader(path string) server.Loader {
	return func() (server.Engine, server.Info, error) {
		start := time.Now()
		eng, err := tpa.LoadSnapshotMmap(path)
		if errors.Is(err, tpa.ErrBadSnapshot) {
			return nil, server.Info{}, fmt.Errorf("%w (rebuild it with `tpad build`)", err)
		}
		if err != nil {
			return nil, server.Info{}, err
		}
		log.Printf("tpad: snapshot %s loaded in %v", path, time.Since(start).Round(time.Millisecond))
		return eng, engineInfo(eng, path), nil
	}
}

// edgeListLoader parses and preprocesses an edge list; used for directory
// entries that are not snapshots.
func edgeListLoader(path string, o tpa.Options) server.Loader {
	return func() (server.Engine, server.Info, error) {
		g, err := tpa.LoadGraph(path)
		if err != nil {
			return nil, server.Info{}, err
		}
		eng, err := tpa.New(g, o)
		if err != nil {
			return nil, server.Info{}, err
		}
		return eng, engineInfo(eng, path), nil
	}
}

func engineInfo(eng *tpa.Engine, path string) server.Info {
	return server.Info{Nodes: eng.NumNodes(), Edges: eng.NumEdges(), Name: path}
}

// registerDir scans dir and registers every snapshot (.tpam) and edge list
// (.tsv/.txt/.edges/.el, optionally .gz) as a named, reloadable graph. The
// graph name is the file name without extensions; when a snapshot and an
// edge list share a stem (the `tpad build` default layout), the snapshot
// wins.
func registerDir(h *server.Handler, dir string, o tpa.Options, ing *ingestSetup) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: reading -graphs dir: %w", err)
	}
	snapshots := make(map[string]bool)
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".tpam"); ok && !e.IsDir() {
			snapshots[name] = true
		}
	}
	registered := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		name, loader := classify(path, e.Name(), o)
		if loader == nil {
			continue
		}
		if snapshots[name] && !strings.HasSuffix(e.Name(), ".tpam") {
			log.Printf("tpad: %s shadowed by %s.tpam, skipping", path, name)
			continue
		}
		if err := h.RegisterLoader(name, ing.wrap(name, loader)); err != nil {
			return fmt.Errorf("serve: registering %s: %w", path, err)
		}
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("serve: no snapshots (.tpam) or edge lists found in %s", dir)
	}
	return nil
}

// classify maps a directory entry to a graph name and loader; unknown file
// types return a nil loader and are skipped.
func classify(path, base string, o tpa.Options) (string, server.Loader) {
	name, ext := stem(base)
	switch {
	case ext == ".tpam" && !strings.HasSuffix(base, ".gz"):
		return name, snapshotLoader(path)
	case ext == ".tsv", ext == ".txt", ext == ".edges", ext == ".el":
		return name, edgeListLoader(path, o)
	default:
		return "", nil
	}
}
