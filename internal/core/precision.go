package core

import (
	"fmt"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// Reduced-precision serving. The online phase is bandwidth-bound: S-1
// applications of Ãᵀ — a scatter along the frontier's out-edges while it is
// sparse, a gather over the in-adjacency once the walk sees it go dense —
// each reading x[u] and 1/outdeg(u) per edge, between full passes
// over the iterates. Storing the served index (the stranger vector) and
// the query iterates as float32 halves that working set, which is worth
// more than the lost mantissa — the approximation error is already
// 2(1-c)^S ≈ 0.9 at the defaults, while float32 rounding contributes ~1e-7
// per entry. The accuracy suite pins this down with an explicit float32
// tolerance on top of the Theorem-2 bound.
//
// Preprocessing always runs in float64 and the float64 master state is kept
// alongside: incremental reindexing (reindex.go) runs on it, and the
// float32 state is re-derived whenever the master changes. Every query
// entry point, deadline-bounded or not, switches kernels together, and only
// when the operator natively supports float32 application (rwr.Operator32 —
// graph.Walk does, with the same push/pull switch in either width; an
// operator without it runs the float64 kernels). Engine.ApplyEdges
// reindexes onto a compacted graph.Walk, so a float32 engine keeps its
// float32 kernels across writes.

// Precision selects the storage precision of the served index and the
// online-phase kernels.
type Precision uint8

const (
	// Float64 serves with the full-precision kernels (default).
	Float64 Precision = iota
	// Float32 stores the served stranger vector and query iterates as
	// float32 and runs the reduced-precision kernels where the operator
	// supports them.
	Float32
)

func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// ParsePrecision maps the CLI/config spellings to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "64", "f64", "float64":
		return Float64, nil
	case "32", "f32", "float32":
		return Float32, nil
	}
	return Float64, fmt.Errorf("core: unknown precision %q (want float64 or float32)", s)
}

// Precision returns the serving precision of the index.
func (t *TPA) Precision() Precision { return t.prec }

// SetPrecision switches the serving precision, deriving (or dropping) the
// float32 state from the float64 master. It must be called before the TPA
// is shared across goroutines — typically right after preprocessing or
// loading — as it mutates the receiver.
func (t *TPA) SetPrecision(p Precision) error {
	if p != Float64 && p != Float32 {
		return fmt.Errorf("core: unknown precision %d", p)
	}
	t.prec = p
	t.applyPrecision()
	return nil
}

// applyPrecision (re)derives the float32 serving state from the float64
// master. Call after any change to t.stranger, t.walk or t.prec.
func (t *TPA) applyPrecision() {
	if t.prec != Float32 {
		t.stranger32 = nil
		t.walk32 = nil
		return
	}
	if len(t.stranger32) != len(t.stranger) {
		t.stranger32 = sparse.Round32(t.stranger, sparse.NewVector32(len(t.stranger)))
	}
	t.walk32, _ = t.walk.(rwr.Operator32)
}

// useF32 reports whether the hot query path should run the float32 kernels.
func (t *TPA) useF32() bool { return t.prec == Float32 && t.walk32 != nil }
