package tpa_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"tpa"
)

// TestIngestSoakCrashResume is the CI ingest-soak gate (env-gated: set
// TPA_SOAK=1; TPA_SOAK_DURATION overrides the default 20s storm). It
// drives the real tpad binary end-to-end:
//
//  1. build tpad (with -race), serve a snapshot with -wal,
//  2. storm it with concurrent edge mutations and top-k queries,
//  3. kill -9 the server mid-ingest (acked events still queued),
//  4. replay the surviving WAL in-process on the same base snapshot as a
//     reference, and assert the edge set matches the acked mutation
//     history exactly,
//  5. restart the server on the same -wal dir and assert its served
//     scores match the reference to 1e-12.
func TestIngestSoakCrashResume(t *testing.T) {
	if os.Getenv("TPA_SOAK") == "" {
		t.Skip("set TPA_SOAK=1 to run the ingest soak (builds tpad, mutation storm, kill -9, replay check)")
	}
	stormFor := 20 * time.Second
	if s := os.Getenv("TPA_SOAK_DURATION"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("TPA_SOAK_DURATION: %v", err)
		}
		stormFor = d
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "tpad")
	if out, err := exec.Command("go", "build", "-race", "-o", bin, "./cmd/tpad").CombinedOutput(); err != nil {
		t.Fatalf("building tpad: %v\n%s", err, out)
	}

	// Base graph as a snapshot: both server processes and the in-process
	// reference cold-start from the identical artifact.
	const n = 5000
	g := tpa.RandomSBMGraph(n, 8, 10, 0.9, 42)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "soak.tpas")
	if err := eng.SaveSnapshotFile(snap); err != nil {
		t.Fatal(err)
	}

	walRoot := filepath.Join(dir, "wal")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr
	serve := func() *exec.Cmd {
		cmd := exec.Command(bin, "serve", "-graph", snap, "-addr", addr,
			"-wal", walRoot, "-fsync", "batch", "-ingest-batch-age", "5ms",
			"-compact-wal-bytes", "0")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting tpad: %v", err)
		}
		for i := 0; ; i++ {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if i > 200 {
				t.Fatalf("server on %s never became healthy: %v", addr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return cmd
	}
	cmd := serve()

	// The storm: writers posting random batches, queriers hammering topk.
	type acked struct {
		seq           uint64
		adds, removes [][2]int
	}
	var mu sync.Mutex
	var acks []acked
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wid := 0; wid < 4; wid++ {
		wid := wid
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + wid)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var req struct {
					Add    [][2]int `json:"add,omitempty"`
					Remove [][2]int `json:"remove,omitempty"`
				}
				for i := 0; i < 2+rng.Intn(5); i++ {
					req.Add = append(req.Add, [2]int{rng.Intn(n), rng.Intn(n)})
				}
				for i := 0; i < rng.Intn(3); i++ {
					req.Remove = append(req.Remove, [2]int{rng.Intn(n), rng.Intn(n)})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(base+"/graphs/default/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("writer %d: %v", wid, err)
					return
				}
				var ack struct {
					Seq     uint64 `json:"seq"`
					Dropped bool   `json:"dropped"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("writer %d: status %d err %v", wid, resp.StatusCode, err)
					return
				}
				if !ack.Dropped {
					mu.Lock()
					acks = append(acks, acked{ack.Seq, req.Add, req.Remove})
					mu.Unlock()
				}
			}
		}()
	}
	for qid := 0; qid < 4; qid++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/topk?seed=%d&k=10", base, rng.Intn(n)))
				if err == nil {
					resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}(int64(200 + qid))
	}
	time.Sleep(stormFor)
	close(stop)
	wg.Wait() // every in-flight request acked before the crash

	// Crash hard, mid-ingest: acked events may still be queued unapplied —
	// exactly the window the WAL exists for.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	t.Logf("soak: killed server after %v with %d acked batches", stormFor, len(acks))

	// Reference: same snapshot, same WAL, replayed in this process.
	refBase, err := tpa.LoadSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	ref, stats, err := refBase.ReplayWAL(filepath.Join(walRoot, "default"))
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	t.Logf("soak: reference replayed %d records (%d applies, %d edges, torn=%v)",
		stats.Records, stats.Applies, stats.Edges, stats.Truncated)

	// Set-semantic ground truth: the acked history in WAL-sequence order
	// must land on exactly the replayed edge set.
	mu.Lock()
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	mu.Unlock()
	edges := map[[2]int]struct{}{}
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			edges[[2]int{u, int(v)}] = struct{}{}
		}
	}
	for _, a := range acks {
		for _, e := range a.adds {
			edges[e] = struct{}{}
		}
		for _, e := range a.removes {
			delete(edges, e)
		}
	}
	if int64(len(edges)) != ref.NumEdges() {
		t.Fatalf("replayed engine has %d edges, acked history implies %d", ref.NumEdges(), len(edges))
	}

	// Restart on the same WAL and compare served scores to the reference.
	cmd = serve()
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		seed, node := rng.Intn(n), rng.Intn(n)
		resp, err := http.Get(fmt.Sprintf("%s/score?seed=%d&node=%d", base, seed, node))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Score float64 `json:"score"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		scores, err := ref.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.Score - scores[node]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("seed %d node %d: restarted server scores %.17g, reference %.17g",
				seed, node, got.Score, scores[node])
		}
	}
}
