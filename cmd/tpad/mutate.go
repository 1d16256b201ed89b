package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tpad mutate posts edge batches to a running tpad server's
// POST /graphs/{name}/edges endpoint:
//
//	tpad mutate -graph web -add 1,2 -add 3,4 -remove 5,6
//	tpad mutate -graph web -file batch.txt
//	tpad mutate -graph web -watch live.txt -interval 1s
//
// -file applies one batch from a mutation file and exits; -watch follows a
// growing mutation file (a log of edge events), posting the new complete
// lines as a batch every interval until interrupted — the stream-shaped
// deployment where edges arrive continuously.
//
// Mutation files carry one edge event per line:
//
//	+ 12 34   add the edge 12→34
//	- 12 34   remove the edge 12→34
//	12 34     shorthand for add
//
// Blank lines and lines starting with '#' or '%' are skipped.

// edgeListFlag collects repeated -add/-remove "u,v" flags.
type edgeListFlag struct{ edges [][2]int }

func (f *edgeListFlag) String() string { return fmt.Sprint(f.edges) }

func (f *edgeListFlag) Set(s string) error {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return fmt.Errorf("want \"u,v\", got %q", s)
	}
	u, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	f.edges = append(f.edges, [2]int{u, v})
	return nil
}

func cmdMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "base URL of the running tpad server")
	graph := fs.String("graph", "", "name of the graph to mutate (required)")
	var adds, removes edgeListFlag
	fs.Var(&adds, "add", "edge to insert as \"u,v\" (repeatable)")
	fs.Var(&removes, "remove", "edge to delete as \"u,v\" (repeatable)")
	file := fs.String("file", "", "mutation file to apply as one batch")
	watch := fs.String("watch", "", "mutation file to follow, posting new lines until interrupted")
	interval := fs.Duration("interval", time.Second, "poll interval for -watch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graph == "" {
		return fmt.Errorf("mutate: -graph is required")
	}
	if *watch != "" && (*file != "" || len(adds.edges) > 0 || len(removes.edges) > 0) {
		return fmt.Errorf("mutate: -watch cannot be combined with -file/-add/-remove")
	}
	url := strings.TrimSuffix(*server, "/") + "/graphs/" + *graph + "/edges"
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch != "" {
		return watchMutations(ctx, url, *watch, *interval)
	}
	batch := mutateRequest{Add: adds.edges, Remove: removes.edges}
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		fileAdds, fileRemoves, err := parseMutations(bufio.NewScanner(f))
		if err != nil {
			return fmt.Errorf("mutate: %s: %w", *file, err)
		}
		batch.Add = append(batch.Add, fileAdds...)
		batch.Remove = append(batch.Remove, fileRemoves...)
	}
	if len(batch.Add) == 0 && len(batch.Remove) == 0 {
		return fmt.Errorf("mutate: nothing to apply; use -add/-remove/-file/-watch")
	}
	return postMutation(ctx, url, batch)
}

// mutateRequest mirrors the server's POST /graphs/{name}/edges body.
type mutateRequest struct {
	Add    [][2]int `json:"add,omitempty"`
	Remove [][2]int `json:"remove,omitempty"`
}

// parseMutations reads edge events ("+ u v", "- u v", "u v") from sc.
func parseMutations(sc *bufio.Scanner) (adds, removes [][2]int, err error) {
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		remove := false
		switch {
		case strings.HasPrefix(text, "+"):
			text = text[1:]
		case strings.HasPrefix(text, "-"):
			remove = true
			text = text[1:]
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("line %d: want \"[+|-] u v\", got %q", line, sc.Text())
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		if remove {
			removes = append(removes, [2]int{u, v})
		} else {
			adds = append(adds, [2]int{u, v})
		}
	}
	return adds, removes, sc.Err()
}

// postMutation sends one batch and prints the server's summary. A 200 is a
// synchronous apply; a 202 is a durable-ingest acknowledgement (the batch is
// in the WAL, the batcher applies it shortly). A 429 is backpressure, in two
// flavors: reject mode carries Retry-After (wait and resend — the batch is
// not logged until a 2xx comes back, so the retry cannot double-apply), drop
// mode carries "dropped": true (the event is discarded; report and move on).
func postMutation(ctx context.Context, url string, batch mutateRequest) error {
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			var shed struct {
				Dropped bool `json:"dropped"`
			}
			if json.Unmarshal(payload, &shed) == nil && shed.Dropped {
				fmt.Printf("dropped +%d -%d edges (ingest queue full, drop mode)\n",
					len(batch.Add), len(batch.Remove))
				return nil
			}
			delay := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			continue
		case http.StatusAccepted:
			var ack struct {
				Seq        uint64  `json:"seq"`
				QueueDepth float64 `json:"queue_depth"`
			}
			if err := json.Unmarshal(payload, &ack); err != nil {
				return fmt.Errorf("mutate: bad server response: %w", err)
			}
			fmt.Printf("queued +%d -%d edges durably (seq %d, queue depth %.0f)\n",
				len(batch.Add), len(batch.Remove), ack.Seq, ack.QueueDepth)
			return nil
		case http.StatusOK:
		default:
			return fmt.Errorf("mutate: server answered %s: %s", resp.Status, strings.TrimSpace(string(payload)))
		}
		var summary struct {
			Added        int     `json:"added"`
			Removed      int     `json:"removed"`
			Edges        int64   `json:"edges"`
			Compacted    bool    `json:"compacted"`
			HeadIters    int     `json:"head_iters"`
			ReindexIters int     `json:"reindex_iters"`
			StaleBound   float64 `json:"stale_bound"`
			ElapsedMS    float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(payload, &summary); err != nil {
			return fmt.Errorf("mutate: bad server response: %w", err)
		}
		head := fmt.Sprintf("head recomputed (%d steps)", summary.HeadIters)
		switch {
		case !summary.Compacted:
			head = "graph unchanged"
		case summary.HeadIters == 0:
			head = "head skipped"
		}
		fmt.Printf("applied +%d -%d edges (now %d) in %.1fms — reindex: incremental, %s, %d iters, stale bound %.3g\n",
			summary.Added, summary.Removed, summary.Edges, summary.ElapsedMS, head, summary.ReindexIters, summary.StaleBound)
		return nil
	}
}

// watchMutations follows path from the beginning, posting every new run of
// complete lines as one batch, until ctx is cancelled (^C from cmdMutate).
func watchMutations(ctx context.Context, url, path string, interval time.Duration) error {
	var offset int64
	var pending []byte
	for {
		grew, err := func() (bool, error) {
			f, err := os.Open(path)
			if os.IsNotExist(err) {
				// The file is mid-rotation (renamed away, not yet
				// recreated) or not written yet: keep following.
				offset = 0
				pending = nil
				return false, nil
			}
			if err != nil {
				return false, err
			}
			defer f.Close()
			st, err := f.Stat()
			if err != nil {
				return false, err
			}
			if st.Size() < offset {
				// The file was truncated/rotated: start over.
				offset = 0
				pending = nil
			}
			if st.Size() == offset {
				return false, nil
			}
			if _, err := f.Seek(offset, io.SeekStart); err != nil {
				return false, err
			}
			chunk, err := io.ReadAll(f)
			if err != nil {
				return false, err
			}
			offset += int64(len(chunk))
			pending = append(pending, chunk...)
			return true, nil
		}()
		if err != nil {
			return err
		}
		if grew {
			// Only complete lines form the batch; a partial trailing line
			// waits for its newline.
			if cut := bytes.LastIndexByte(pending, '\n'); cut >= 0 {
				ready := pending[:cut+1]
				pending = append([]byte(nil), pending[cut+1:]...)
				adds, removes, err := parseMutations(bufio.NewScanner(bytes.NewReader(ready)))
				if err != nil {
					return fmt.Errorf("mutate: %s: %w", path, err)
				}
				if len(adds) > 0 || len(removes) > 0 {
					if err := postMutation(ctx, url, mutateRequest{Add: adds, Remove: removes}); err != nil {
						return err
					}
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}
