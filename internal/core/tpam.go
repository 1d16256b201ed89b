package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"tpa/internal/binio"
	"tpa/internal/graph"
	"tpa/internal/mmapio"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// TPAM engine sections: what the sections of a TPAM container (the generic
// page-aligned, CRC-32C-checksummed layout of internal/mmapio) mean for a
// preprocessed TPA. Every engine array is a raw little-endian section, so
// the readers below bind views of the container instead of copying.
// ReadSnapshot binds the graph half, ReadIndex the index half.
//
// Sections (ids are stable; readers must tolerate unknown extra sections):
//
//	 1 meta       bytes    64- or 72-byte fixed header, layout below
//	 2 outPtr     int64    n+1   CSR row pointers
//	 3 outIdx     int32    m     CSR column indices
//	 4 inPtr      int64    n+1   CSC column pointers
//	 5 inIdx      int32    m     CSC row indices
//	 6 invdeg     float64  n     1/outdeg (0 for dangling nodes)
//	 7 invdeg32   float32  n     float32 twin of invdeg
//	 8 dangling   int32    d     retired: older builds wrote the ascending
//	                             dangling-node list; ignored on read
//	 9 stranger   float64  n     the CPI index (r̃_stranger master)
//	10 stranger32 float32  n     served index, Float32 indexes only
//	11 perm       int32    n     perm[internal]=external, permuted only
//	12 shards     int64    s+1   shard bounds, sharded engines only
//
// meta layout (little-endian): u64 n, u64 m, u64 danglingCount, u32 policy,
// u32 S, u32 T, u32 preIters, u32 precision (0=float64, 1=float32),
// u32 flags (0), f64 C, f64 Eps; then, only when it is positive, f64
// StaleBound: every build since preprocessing stops on a tail bound writes
// it, and so does every index that took writes. A 64-byte meta (an ε-built
// index) loads with StaleBound 0. policy must
// be 0 (graph.DanglingSelfLoop, the only policy). danglingCount is 0:
// older builds wrote the length of section 8 there, and readers ignore it.
const (
	SecMeta       = 1
	SecOutPtr     = 2
	SecOutIdx     = 3
	SecInPtr      = 4
	SecInIdx      = 5
	SecInvDeg     = 6
	SecInvDeg32   = 7
	SecDangling   = 8 // retired; see the table above
	SecStranger   = 9
	SecStranger32 = 10
	SecPerm       = 11
	SecShards     = 12

	MetaSize      = 64
	MetaStaleSize = MetaSize + 8
)

// ErrBadSnapshot is wrapped by every ReadSnapshot and ReadIndex failure
// caused by the container's bytes.
var ErrBadSnapshot = binio.ErrBadSnapshot

// meta is the decoded meta section.
type meta struct {
	n, m     uint64
	policy   graph.DanglingPolicy
	params   Params
	preIters int
	prec     Precision
	cfg      rwr.Config
	stale    float64
}

func metaOf(t *TPA, walk *graph.Walk) meta {
	return meta{n: uint64(walk.N()), m: uint64(walk.Graph().NumEdges()), policy: graph.DanglingSelfLoop,
		params: t.params, preIters: t.preIters, prec: t.prec, cfg: t.cfg, stale: t.stale}
}

func (md meta) encode() []byte {
	le := binary.LittleEndian
	b := make([]byte, MetaSize)
	if md.stale > 0 {
		b = make([]byte, MetaStaleSize)
		le.PutUint64(b[64:], math.Float64bits(md.stale))
	}
	le.PutUint64(b[0:], md.n)
	le.PutUint64(b[8:], md.m)
	le.PutUint32(b[24:], uint32(md.policy))
	le.PutUint32(b[28:], uint32(md.params.S))
	le.PutUint32(b[32:], uint32(md.params.T))
	le.PutUint32(b[36:], uint32(md.preIters))
	le.PutUint32(b[40:], uint32(md.prec))
	le.PutUint32(b[44:], 0)
	le.PutUint64(b[48:], math.Float64bits(md.cfg.C))
	le.PutUint64(b[56:], math.Float64bits(md.cfg.Eps))
	return b
}

// readMeta verifies and decodes the meta section. Precision is checked here,
// before its narrowing conversion; other field values are left to the
// reader that uses them.
func readMeta(s *mmapio.Snapshot) (meta, error) {
	if err := s.VerifySection(SecMeta); err != nil {
		return meta{}, err
	}
	b, err := s.Bytes(SecMeta)
	if err != nil {
		return meta{}, err
	}
	if len(b) != MetaSize && len(b) != MetaStaleSize {
		return meta{}, binio.Errf("meta section is %d bytes, want %d or %d", len(b), MetaSize, MetaStaleSize)
	}
	le := binary.LittleEndian
	if p := le.Uint32(b[40:]); p != uint32(Float64) && p != uint32(Float32) {
		return meta{}, binio.Errf("unknown precision %d", p)
	}
	md := meta{
		n:        le.Uint64(b[0:]),
		m:        le.Uint64(b[8:]),
		policy:   graph.DanglingPolicy(le.Uint32(b[24:])),
		params:   Params{S: int(int32(le.Uint32(b[28:]))), T: int(int32(le.Uint32(b[32:])))},
		preIters: int(int32(le.Uint32(b[36:]))),
		prec:     Precision(b[40]),
		cfg:      rwr.Config{C: math.Float64frombits(le.Uint64(b[48:])), Eps: math.Float64frombits(le.Uint64(b[56:]))},
	}
	if len(b) == MetaStaleSize {
		md.stale = math.Float64frombits(le.Uint64(b[64:]))
	}
	return md, nil
}

// verifySections checks the stored CRC-32C of each listed section; a missing
// section fails typed.
func verifySections(s *mmapio.Snapshot, ids ...uint32) error {
	for _, id := range ids {
		if err := s.VerifySection(id); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot adds the TPAM sections of t to w. walk is the in-memory
// walk under t's operator: t.Walk() itself for an unsharded index, the walk
// a shard plan partitions otherwise. perm (perm[internal] = external) and
// shards (the shard bounds) are written when non-nil. w's slices alias the
// walk's and the index's storage until w is written.
func WriteSnapshot(w *mmapio.Writer, t *TPA, walk *graph.Walk, perm []int32, shards []int) error {
	if walk.N() != t.walk.N() {
		return fmt.Errorf("core: index covers %d nodes but the walk has %d", t.walk.N(), walk.N())
	}
	// ReadSnapshot refuses a structurally invalid graph, so writing one would
	// only produce a file nothing can load.
	if err := walk.Graph().Validate(); err != nil {
		return fmt.Errorf("core: refusing to snapshot invalid graph: %v", err)
	}
	writeSections(w, metaOf(t, walk), walk, t.stranger)
	if perm != nil {
		w.I32s(SecPerm, perm)
	}
	if shards != nil {
		b64 := make([]int64, len(shards))
		for i, b := range shards {
			b64[i] = int64(b)
		}
		w.I64s(SecShards, b64)
	}
	return nil
}

// writeSections adds the meta, graph and index sections exactly as given,
// unchecked.
func writeSections(w *mmapio.Writer, md meta, walk *graph.Walk, stranger sparse.Vector) {
	outPtr, outIdx := walk.Graph().RawCSR()
	inPtr, inIdx := walk.Graph().RawCSC()
	invdeg, invdeg32 := walk.RawNormalization()
	w.Bytes(SecMeta, md.encode())
	w.I64s(SecOutPtr, outPtr)
	w.I32s(SecOutIdx, outIdx)
	w.I64s(SecInPtr, inPtr)
	w.I32s(SecInIdx, inIdx)
	w.F64s(SecInvDeg, invdeg)
	w.F32s(SecInvDeg32, invdeg32)
	w.F64s(SecStranger, stranger)
	if md.prec == Float32 {
		w.F32s(SecStranger32, sparse.Round32(stranger, make(sparse.Vector32, len(stranger))))
	}
}

// Snapshot is the graph half of a TPAM container, as ReadSnapshot binds it.
type Snapshot struct {
	Walk   *graph.Walk
	Perm   []int32 // perm[internal] = external; nil when unpermuted
	Shards []int   // shard bounds; nil for an unsharded engine
}

// ReadSnapshot binds the graph half of s — adjacency, normalization,
// permutation and shard bounds — as views into s, all but the shard bounds
// without copying. It checks each section twice before any view reaches a
// kernel: the CRC-32C of every section it binds, and then the structure
// the kernels index unchecked (monotone pointers, sorted in-range
// neighbours, the permutation, the range of each shard bound) and the
// normalization that keeps the walk's mass (each 1/outdeg entry against
// the row pointers). Both passes are sequential and read-only, so the
// zero-copy path allocates O(1) in graph size. The walk's graph retains s.
// Every failure wraps ErrBadSnapshot.
func ReadSnapshot(s *mmapio.Snapshot) (*Snapshot, error) {
	md, err := readMeta(s)
	if err != nil {
		return nil, err
	}
	if md.n > uint64(graph.MaxNodeID)+1 {
		return nil, binio.Errf("node count %d out of range", md.n)
	}
	n := int(md.n)
	if md.m > uint64(s.SizeBytes()) {
		// Every edge occupies ≥ 4 bytes in each adjacency section, so the
		// container size bounds any honest edge count.
		return nil, binio.Errf("edge count %d exceeds snapshot size", md.m)
	}
	m := int64(md.m)
	if md.policy != graph.DanglingSelfLoop {
		return nil, binio.Errf("dangling policy %d, want %d (self-loop)", md.policy, graph.DanglingSelfLoop)
	}
	if err := verifySections(s, SecOutPtr, SecOutIdx, SecInPtr, SecInIdx,
		SecInvDeg, SecInvDeg32); err != nil {
		return nil, err
	}

	outPtr, err := s.I64s(SecOutPtr)
	if err != nil {
		return nil, err
	}
	outIdx, err := s.I32s(SecOutIdx)
	if err != nil {
		return nil, err
	}
	inPtr, err := s.I64s(SecInPtr)
	if err != nil {
		return nil, err
	}
	inIdx, err := s.I32s(SecInIdx)
	if err != nil {
		return nil, err
	}
	if len(outPtr) != n+1 || len(inPtr) != n+1 {
		return nil, binio.Errf("pointer sections have %d/%d entries, want %d", len(outPtr), len(inPtr), n+1)
	}
	if int64(len(outIdx)) != m || int64(len(inIdx)) != m {
		return nil, binio.Errf("index sections have %d/%d entries, want %d", len(outIdx), len(inIdx), m)
	}
	g, err := graph.FromCSRArrays(n, outPtr, outIdx, inPtr, inIdx, s)
	if err != nil {
		return nil, binio.Errf("%v", err)
	}
	// Checksums prove the bytes are intact, not that whoever wrote them
	// validated; the kernels index these arrays unchecked against n.
	if err := g.Validate(); err != nil {
		return nil, binio.Errf("%v", err)
	}

	invdeg, err := s.F64s(SecInvDeg)
	if err != nil {
		return nil, err
	}
	invdeg32, err := s.F32s(SecInvDeg32)
	if err != nil {
		return nil, err
	}
	walk, err := graph.NewWalkFromParts(g, invdeg, invdeg32)
	if err != nil {
		return nil, binio.Errf("%v", err)
	}
	snap := &Snapshot{Walk: walk}

	if s.Has(SecPerm) {
		if err := s.VerifySection(SecPerm); err != nil {
			return nil, err
		}
		if snap.Perm, err = s.I32s(SecPerm); err != nil {
			return nil, err
		}
		if err := graph.CheckPermutation(snap.Perm, n); err != nil {
			return nil, binio.Errf("%v", err)
		}
	}
	if s.Has(SecShards) {
		if err := s.VerifySection(SecShards); err != nil {
			return nil, err
		}
		b64, err := s.I64s(SecShards)
		if err != nil {
			return nil, err
		}
		snap.Shards = make([]int, len(b64))
		for i, b := range b64 {
			if b < 0 || b > int64(n) {
				return nil, binio.Errf("shard bound %d outside [0,%d]", b, n)
			}
			snap.Shards[i] = int(b)
		}
	}
	return snap, nil
}

// ReadIndex binds the index half of s to op — the walk ReadSnapshot bound,
// or an operator over it such as a shard plan: parameters, configuration,
// precision, preprocessing iterations, StaleBound, and the stranger vector
// (with its float32 twin for Float32 indexes) as views into s. It verifies
// the checksums of the sections it binds and that the index covers op's
// nodes. Every failure wraps ErrBadSnapshot.
func ReadIndex(s *mmapio.Snapshot, op rwr.Operator) (*TPA, error) {
	md, err := readMeta(s)
	if err != nil {
		return nil, err
	}
	if md.n != uint64(op.N()) {
		return nil, binio.Errf("index covers %d nodes but the graph has %d", md.n, op.N())
	}
	if err := s.VerifySection(SecStranger); err != nil {
		return nil, err
	}
	stranger, err := s.F64s(SecStranger)
	if err != nil {
		return nil, err
	}
	var stranger32 sparse.Vector32
	if md.prec == Float32 {
		if err := s.VerifySection(SecStranger32); err != nil {
			return nil, err
		}
		if stranger32, err = s.F32s(SecStranger32); err != nil {
			return nil, err
		}
	}
	t, err := NewFromParts(op, md.cfg, md.params, stranger, stranger32, md.prec, md.preIters)
	if err != nil {
		return nil, binio.Errf("%v", err)
	}
	if err := t.SetStaleBound(md.stale); err != nil {
		return nil, binio.Errf("%v", err)
	}
	return t, nil
}
