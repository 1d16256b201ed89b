package tpa

import (
	"fmt"

	"tpa/internal/ingest"
)

// WALReplayStats summarizes an Engine.ReplayWAL pass over a write-ahead
// edge log: segments and records read, edges re-applied, and whether a
// torn tail (an append interrupted by a crash) was detected and skipped.
type WALReplayStats = ingest.ReplayStats

// ReplayWAL re-applies every edge-mutation batch logged under dir (a WAL
// directory written by internal/ingest, i.e. `tpad serve -wal`) on top of
// the receiver, returning the caught-up engine. The receiver is untouched,
// like ApplyEdges.
//
// Replay follows the log's apply markers, re-running the exact ApplyEdges
// partitioning the writing process used — the incremental reindex is
// path-dependent, so matching the grouping makes the replayed engine
// numerically identical to the pre-crash one, not merely close. The one
// exception is a receiver loaded from a snapshot taken mid-stream, such as
// an auto-compaction's: snapshots do not keep the in-memory head state a
// write may reuse, so the first replayed write recomputes the head and the
// result stays within the reported bounds but not bit for bit. A torn
// tail in the final segment (a half-written record from a crash) is
// detected by CRC and cleanly skipped (Truncated in the stats); corruption
// followed by valid records fails with an error wrapping ErrBadSnapshot.
// A missing or empty directory is a no-op.
func (e *Engine) ReplayWAL(dir string) (*Engine, WALReplayStats, error) {
	cur := e
	stats, err := ingest.Replay(dir, func(adds, removes [][2]int) error {
		next, _, err := cur.ApplyEdges(adds, removes)
		if err != nil {
			return err
		}
		cur = next
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: replaying WAL %s: %w", dir, err)
	}
	return cur, stats, nil
}
