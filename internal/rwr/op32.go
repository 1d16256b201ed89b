package rwr

import "tpa/internal/sparse"

// Operator32 is an optional capability of an Operator: applying Ãᵀ to
// float32 vectors natively, without widening to float64 first. The
// reduced-precision online phase (core's float32 query path) type-asserts
// for it and runs the float64 kernels when the operator does not provide
// it, so precision is a per-operator capability, never a correctness
// requirement. graph.Walk and shard.Operator provide it, and they are the
// only operators the engine serves (it reindexes every write onto a
// compacted Walk or a shard.Operator over one).
type Operator32 interface {
	Operator
	// MulT32 computes y = Ãᵀ·x over float32 storage into the provided
	// buffer y (zeroed first) and returns y. len(y) must equal len(x) == N.
	MulT32(x, y sparse.Vector32) sparse.Vector32
}
