package server

import (
	"path/filepath"
	"testing"

	"tpa"
)

// TestShardStorageObservability pins the shard/storage surface on real
// engines: a sharded engine must expose its layout on /metrics and
// /graphs/{name}/stats, a memory-mapped engine must report its bytes as
// mapped rather than heap, and a plain engine must still produce the
// families (count 1, everything on the heap) so dashboards see a stable
// schema regardless of how a graph was built.
func TestShardStorageObservability(t *testing.T) {
	g := tpa.RandomSBMGraph(400, 4, 5, 0.85, 11)
	plain, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := tpa.NewSharded(g, 3, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := sharded.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := tpa.LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	info := Info{Nodes: g.NumNodes(), Edges: g.NumEdges(), Name: "sbm"}
	h := NewWith(plain, info, Options{})
	if err := h.Register("sharded", sharded, info); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("mapped", mapped, info); err != nil {
		t.Fatal(err)
	}

	// One query per graph, so the kernel counters below have something to
	// show: a seed's first hops are answered by the push kernel.
	for _, graph := range []string{"default", "sharded", "mapped"} {
		if rec, _ := get(t, h, "/graphs/"+graph+"/topk?seed=1&k=3"); rec.Code != 200 {
			t.Fatalf("%s topk = %d: %s", graph, rec.Code, rec.Body.String())
		}
	}

	samples, _ := scrapeMetrics(t, h)
	pick := func(name, graph string) []promSample {
		var out []promSample
		for _, s := range samples {
			if s.name == name && s.labels["graph"] == graph {
				out = append(out, s)
			}
		}
		return out
	}
	one := func(name, graph string) float64 {
		t.Helper()
		ss := pick(name, graph)
		if len(ss) != 1 {
			t.Fatalf("%s{graph=%q}: %d samples, want 1", name, graph, len(ss))
		}
		return ss[0].value
	}

	if v := one("tpa_shard_count", "default"); v != 1 {
		t.Errorf("plain engine shard count = %v, want 1", v)
	}
	if v := one("tpa_shard_count", "sharded"); v != 3 {
		t.Errorf("sharded engine shard count = %v, want 3", v)
	}
	if v := one("tpa_shard_count", "mapped"); v != 3 {
		t.Errorf("mapped engine shard count = %v, want 3 (shard plan lost in snapshot)", v)
	}

	// Per-shard series: absent for the plain engine, one sample per shard
	// for the sharded ones, summing back to the graph totals.
	if ss := pick("tpa_shard_nodes", "default"); len(ss) != 0 {
		t.Errorf("plain engine has %d per-shard node samples, want 0", len(ss))
	}
	for _, graph := range []string{"sharded", "mapped"} {
		var nodes, edges float64
		nodeSamples := pick("tpa_shard_nodes", graph)
		if len(nodeSamples) != 3 {
			t.Fatalf("%s: %d tpa_shard_nodes samples, want 3", graph, len(nodeSamples))
		}
		for _, s := range nodeSamples {
			nodes += s.value
		}
		for _, s := range pick("tpa_shard_edges", graph) {
			edges += s.value
		}
		if int(nodes) != g.NumNodes() || int64(edges) != g.NumEdges() {
			t.Errorf("%s: shard layout sums to %v nodes / %v edges, want %d / %d",
				graph, nodes, edges, g.NumNodes(), g.NumEdges())
		}
	}

	// Kernel counters: none for the plain engine; a sharded one has pushed
	// the query's sparse hops, and the one built here (not loaded) pulled
	// all through preprocessing.
	if ss := pick("tpa_shard_matvec_total", "default"); len(ss) != 0 {
		t.Errorf("plain engine has %d matvec samples, want 0", len(ss))
	}
	for _, graph := range []string{"sharded", "mapped"} {
		byKernel := map[string]float64{}
		for _, s := range pick("tpa_shard_matvec_total", graph) {
			byKernel[s.labels["kernel"]] = s.value
		}
		if len(byKernel) != 2 || byKernel["push"] <= 0 {
			t.Errorf("%s: tpa_shard_matvec_total by kernel = %v, want push > 0 and a pull series", graph, byKernel)
		}
		if graph == "sharded" && byKernel["pull"] <= 0 {
			t.Errorf("%s: no pulled applications although preprocessing ran", graph)
		}
	}

	// Storage split: heap engines report heap bytes only; the mapped engine
	// moves its bytes into the mmap series (when the platform actually maps
	// — the heap-decode fallback keeps them on the heap).
	if v := one("tpa_shard_mmap_bytes", "sharded"); v != 0 {
		t.Errorf("heap engine reports %v mmap bytes", v)
	}
	if v := one("tpa_shard_heap_bytes", "sharded"); v <= 0 {
		t.Errorf("heap engine reports %v heap bytes", v)
	}
	if mapped.Mapped() {
		if v := one("tpa_shard_mmap_bytes", "mapped"); v <= 0 {
			t.Errorf("mapped engine reports %v mmap bytes", v)
		}
		if v := one("tpa_shard_heap_bytes", "mapped"); v != 0 {
			t.Errorf("mapped engine reports %v heap bytes", v)
		}
	}

	// The JSON stats surface carries the same story.
	rec, body := get(t, h, "/graphs/mapped/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body.String())
	}
	storage, ok := body["storage"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats missing storage block: %v", body)
	}
	if storage["mapped"].(bool) != mapped.Mapped() {
		t.Errorf("storage.mapped = %v, want %v", storage["mapped"], mapped.Mapped())
	}
	shards, ok := body["shards"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats missing shards block: %v", body)
	}
	if shards["count"].(float64) != 3 {
		t.Errorf("shards.count = %v, want 3", shards["count"])
	}
	if nodes := shards["nodes"].([]interface{}); len(nodes) != 3 {
		t.Errorf("shards.nodes has %d entries, want 3", len(nodes))
	}
	if mv, ok := shards["matvecs"].(map[string]interface{}); !ok || len(mv) != 2 || mv["push"].(float64) <= 0 {
		t.Errorf("shards.matvecs = %v, want push > 0 beside a pull count after one query", shards["matvecs"])
	}

	rec, body = get(t, h, "/graphs/default/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	if sh := body["shards"].(map[string]interface{}); sh["count"].(float64) != 1 {
		t.Errorf("plain shards.count = %v, want 1", sh["count"])
	} else if _, present := sh["nodes"]; present {
		t.Errorf("plain engine stats carry a per-shard node list")
	}
}
