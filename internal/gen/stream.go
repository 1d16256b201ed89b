package gen

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Streaming generation: the stochastic-block-model sampler, producing one
// source row at a time so graphs with hundreds of millions of edges can be
// written to disk without ever holding an edge list in memory. SBM packs the
// same rows into CSR form, so a streamed edge list and an in-memory graph
// of one config and seed carry the same edges.

// StreamSBM generates cfg's graph row by row, calling emit(u, targets)
// once per source node in ascending order. targets is sorted, deduplicated
// and self-loop free — exactly node u's out-row in SBM(cfg) — and is reused
// across calls; emit must not retain it. A non-nil error from emit aborts
// generation and is returned, as is an error for a config out of range.
func StreamSBM(cfg SBMConfig, emit func(u int, targets []int32) error) error {
	if cfg.Nodes < 2 || cfg.Communities < 1 || cfg.Communities > cfg.Nodes {
		return fmt.Errorf("gen: bad SBM config %+v", cfg)
	}
	if cfg.PIn < 0 || cfg.PIn > 1 {
		return fmt.Errorf("gen: SBM PIn %v outside [0,1]", cfg.PIn)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes
	k := cfg.Communities
	size := n / k
	// Zipf samplers over positions within each community: preferring low
	// in-community ranks yields skewed in-degrees. The sampler is built per
	// community because the last one absorbs the n%k remainder and spans
	// n−base ≥ size nodes — one sampler sized to the regular communities
	// could never draw the remainder positions, leaving those nodes with no
	// Zipf-targeted in-edges at all.
	zipfs := make([]*rand.Zipf, k)
	for c := 0; c < k; c++ {
		limit := size
		if c == k-1 {
			limit = n - c*size
		}
		zipfs[c] = rand.NewZipf(rng, 1.5, 4, uint64(limit-1))
	}
	pick := func(comm int) int {
		base := comm * size
		limit := size
		if comm == k-1 {
			limit = n - base
		}
		if cfg.Uniform {
			return base + rng.Intn(limit)
		}
		return base + int(zipfs[comm].Uint64())
	}
	row := make([]int32, 0, 64)
	for u := 0; u < n; u++ {
		comm := u / size
		if comm >= k {
			comm = k - 1
		}
		deg := poisson(rng, cfg.AvgOutDeg)
		row = row[:0]
		for e := 0; e < deg; e++ {
			target := comm
			if k > 1 && rng.Float64() > cfg.PIn {
				target = rng.Intn(k - 1)
				if target >= comm {
					target++
				}
			}
			v := pick(target)
			if v == u {
				continue
			}
			row = append(row, int32(v))
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		dst := row[:0]
		var prev int32 = -1
		for _, v := range row {
			if v != prev {
				dst = append(dst, v)
				prev = v
			}
		}
		if err := emit(u, dst); err != nil {
			return err
		}
	}
	return nil
}

// StreamSBMEdgeList writes cfg's graph to w as a whitespace-separated edge
// list ("u\tv" per line) in O(max out-degree) memory — the writer behind
// `graphgen -model sbm`, for generating inputs far larger than RAM would
// allow through the in-memory graph.
func StreamSBMEdgeList(w io.Writer, cfg SBMConfig) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	// Same comment-header shape as graph.WriteEdgeList, minus the edge
	// count — a single pass cannot know it up front (readers skip '#'
	// lines either way).
	if _, err := fmt.Fprintf(bw, "# nodes=%d\n", cfg.Nodes); err != nil {
		return err
	}
	buf := make([]byte, 0, 32)
	err := StreamSBM(cfg, func(u int, targets []int32) error {
		for _, v := range targets {
			buf = strconv.AppendInt(buf[:0], int64(u), 10)
			buf = append(buf, '\t')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// StreamSBMEdgeListFile is StreamSBMEdgeList to a file path (".gz"
// compressed when the path says so), written to a temporary file renamed
// into place on success so an interrupted run leaves no truncated input
// behind.
func StreamSBMEdgeListFile(path string, cfg SBMConfig) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	write := func() error {
		if !strings.HasSuffix(path, ".gz") {
			return StreamSBMEdgeList(f, cfg)
		}
		gz := gzip.NewWriter(f)
		if err := StreamSBMEdgeList(gz, cfg); err != nil {
			gz.Close()
			return err
		}
		return gz.Close()
	}
	if err := write(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
