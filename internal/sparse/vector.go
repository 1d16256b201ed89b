// Package sparse provides the small linear-algebra substrate that the rest
// of the repository is built on: dense vectors with the norm/axpy operations
// CPI needs, sparse score vectors for push-style methods, a dense matrix with
// LU decomposition for the block-elimination methods (BEAR-APPROX, BePI,
// NB-LIN), and a truncated SVD for NB-LIN's low-rank approximation.
//
// Everything is stdlib-only, and float64 except the dense vector, which is
// generic over the element width (see Vec).
package sparse

import (
	"fmt"
	"math"
)

// Float is the element constraint of dense vectors and of the propagation
// kernels built on them.
type Float interface{ float32 | float64 }

// Vec is a dense vector over either float width. Every operation has one
// body for both; reductions (norms, sums, dot products) accumulate in
// float64 whatever the storage width, so convergence checks keep full
// precision even over long float32 vectors.
type Vec[T Float] []T

// Vector is the dense float64 vector: the workhorse value for CPI
// iterations and RWR score vectors.
type Vector = Vec[float64]

// Vector32 is the dense float32 vector: the storage type of the
// reduced-precision online phase. Halving the element size roughly doubles
// how much of a score vector fits in each cache level, which is what the
// float32 query path is for.
type Vector32 = Vec[float32]

// NewVector returns a zero float64 vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// NewVector32 returns a zero float32 vector of length n.
func NewVector32(n int) Vector32 { return make(Vector32, n) }

// Convert fills dst with src converted element-wise to dst's width and
// returns dst. It panics if lengths differ.
func Convert[D, S Float](src Vec[S], dst Vec[D]) Vec[D] {
	checkLen("convert", len(src), len(dst))
	for i, x := range src {
		dst[i] = D(x)
	}
	return dst
}

// Round32 fills dst with v rounded to float32 and returns dst. It panics if
// lengths differ.
func Round32(v Vector, dst Vector32) Vector32 { return Convert(v, dst) }

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("sparse: %s length mismatch %d vs %d", op, a, b))
	}
}

// Clone returns a deep copy of v.
func (v Vec[T]) Clone() Vec[T] {
	w := make(Vec[T], len(v))
	copy(w, v)
	return w
}

// Zero sets all entries of v to 0 in place.
func (v Vec[T]) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets all entries of v to x in place.
func (v Vec[T]) Fill(x T) {
	for i := range v {
		v[i] = x
	}
}

// L1 returns the L1 norm (sum of absolute values) of v.
func (v Vec[T]) L1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(float64(x))
	}
	return s
}

// L2 returns the Euclidean norm of v.
func (v Vec[T]) L2() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the plain sum of the entries of v.
func (v Vec[T]) Sum() float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vec[T]) Dot(w Vec[T]) float64 {
	checkLen("dot", len(v), len(w))
	var s float64
	for i, x := range v {
		s += float64(x) * float64(w[i])
	}
	return s
}

// Scale multiplies every entry of v by a in place and returns v.
func (v Vec[T]) Scale(a T) Vec[T] {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Axpy computes v += a*w in place and returns v. It panics if lengths differ.
func (v Vec[T]) Axpy(a T, w Vec[T]) Vec[T] {
	checkLen("axpy", len(v), len(w))
	for i, x := range w {
		v[i] += a * x
	}
	return v
}

// Add computes v += w in place and returns v. It panics if lengths differ.
func (v Vec[T]) Add(w Vec[T]) Vec[T] {
	checkLen("add", len(v), len(w))
	for i, x := range w {
		v[i] += x
	}
	return v
}

// Sub computes v -= w in place and returns v. It panics if lengths differ.
func (v Vec[T]) Sub(w Vec[T]) Vec[T] { return v.Axpy(-1, w) }

// L1Dist returns the L1 norm of v-w without allocating. It panics if lengths
// differ.
func (v Vec[T]) L1Dist(w Vec[T]) float64 {
	checkLen("l1dist", len(v), len(w))
	var s float64
	for i, x := range v {
		s += math.Abs(float64(x) - float64(w[i]))
	}
	return s
}

// Normalize1 scales v in place so that its L1 norm is 1 and returns v.
// A zero vector is left untouched.
func (v Vec[T]) Normalize1() Vec[T] {
	n := v.L1()
	if n == 0 {
		return v
	}
	return v.Scale(T(1 / n))
}

// Max returns the maximum entry and its index. It panics on an empty vector.
func (v Vec[T]) Max() (int, T) {
	if len(v) == 0 {
		panic("sparse: Max of empty vector")
	}
	bi, bv := 0, v[0]
	for i, x := range v {
		if x > bv {
			bi, bv = i, x
		}
	}
	return bi, bv
}

// Entry pairs a vector index with its score. It is the element type of
// top-k results.
type Entry struct {
	Index int
	Score float64
}

// TopK returns the k largest entries of v in descending score order.
// Ties are broken by ascending index so results are deterministic.
// If k exceeds len(v), all entries are returned.
//
// Selection runs in O(n log k) with a bounded min-heap: for the k ≪ n
// regime of top-k RWR queries this avoids sorting the whole score vector.
// An entry below the heap's weakest score is skipped by one comparison in
// the loop, so most of the n entries never reach the heap. TopKScaledSum
// ranks with the same selector and can break ties on caller ids instead
// (an engine's external ids).
func (v Vec[T]) TopK(k int) []Entry {
	sel := newSelector(k, len(v), nil)
	for i, x := range v {
		if s := float64(x); !(s < sel.floor) {
			sel.offer(i, s)
		}
	}
	return sel.result()
}

// scaledSum is entry i of the vector a·scale + b: float64(a[i])·scale +
// float64(b[i]). ScaledSumInto and TopKScaledSum both evaluate it, so a
// ranked entry carries the same bits as the written one.
func scaledSum[T Float](a, b T, scale float64) float64 {
	return float64(a)*scale + float64(b)
}

// ScaledSumInto writes a·scale + b into dst and returns dst. dst may alias
// a when both are float64. It panics if lengths differ.
func ScaledSumInto[T Float](a, b Vec[T], scale float64, dst Vector) Vector {
	checkLen("scaled sum", len(a), len(b))
	checkLen("scaled sum", len(a), len(dst))
	for i, x := range a {
		dst[i] = scaledSum(x, b[i], scale)
	}
	return dst
}

// TopKScaledSum is TopK of the vector a·scale + b without writing it: each
// entry is computed, tested against the heap's weakest score and dropped.
// A non-nil ids reports entry i as ids[i] and breaks score ties by ascending
// ids[i] — a permuted vector then ranks exactly as the vector scattered
// into ids order would under TopK. It panics if lengths differ.
func TopKScaledSum[T Float](a, b Vec[T], scale float64, k int, ids []int32) []Entry {
	checkLen("scaled sum", len(a), len(b))
	if ids != nil {
		checkLen("scaled sum ids", len(a), len(ids))
	}
	sel := newSelector(k, len(a), ids)
	for i, x := range a {
		if s := scaledSum(x, b[i], scale); !(s < sel.floor) {
			sel.offer(i, s)
		}
	}
	return sel.result()
}

// selector is the bounded min-heap behind every top-k of this package. It
// keeps the k best entries offered so far, ranked by score descending and
// then by reported index ascending; the root is the weakest kept entry.
// floor is the root's score once the heap is full and −Inf before, so a
// caller skips an entry scoring below floor without calling offer.
type selector struct {
	heap  []Entry
	ids   []int32 // reported index of entry i; nil reports i itself
	floor float64
}

// newSelector returns a selector for the top k of n entries.
func newSelector(k, n int, ids []int32) selector {
	k = min(k, n)
	if k <= 0 {
		return selector{floor: math.Inf(1)}
	}
	return selector{heap: make([]Entry, 0, k), ids: ids, floor: math.Inf(-1)}
}

// weaker reports whether a ranks below b in the final ordering (score
// descending, index ascending): a is the one to evict first.
func weaker(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// offer considers entry i with the given score.
func (s *selector) offer(i int, score float64) {
	e := Entry{Index: i, Score: score}
	if s.ids != nil {
		e.Index = int(s.ids[i])
	}
	h := s.heap
	if len(h) < cap(h) {
		h = append(h, e)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if !weaker(h[j], h[p]) {
				break
			}
			h[j], h[p] = h[p], h[j]
			j = p
		}
		s.heap = h
		if len(h) == cap(h) {
			s.floor = h[0].Score
		}
		return
	}
	if len(h) == 0 || weaker(e, h[0]) {
		return
	}
	h[0] = e
	siftDown(h)
	s.floor = h[0].Score
}

// siftDown restores the min-heap order of h after its root changed.
func siftDown(h []Entry) {
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && weaker(h[l], h[m]) {
			m = l
		}
		if r < len(h) && weaker(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// result sorts the kept entries strongest first, in place (each pop moves
// the weakest left to the end of the shrinking heap), and returns them.
func (s *selector) result() []Entry {
	h := s.heap
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end])
	}
	return h
}

// SparseVector is a map-backed sparse accumulator used by push-style methods
// (forward push, backward push) where only a small fraction of entries are
// nonzero.
type SparseVector struct {
	n int
	m map[int]float64
}

// NewSparseVector returns an empty sparse vector of logical length n.
func NewSparseVector(n int) *SparseVector {
	return &SparseVector{n: n, m: make(map[int]float64)}
}

// Len returns the logical length of the vector.
func (s *SparseVector) Len() int { return s.n }

// NNZ returns the number of explicitly stored entries.
func (s *SparseVector) NNZ() int { return len(s.m) }

// Get returns the value at index i (0 if unset).
func (s *SparseVector) Get(i int) float64 { return s.m[i] }

// Set stores value x at index i. Setting 0 removes the entry.
func (s *SparseVector) Set(i int, x float64) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, s.n))
	}
	if x == 0 {
		delete(s.m, i)
		return
	}
	s.m[i] = x
}

// Add adds x to the value at index i and returns the new value.
func (s *SparseVector) Add(i int, x float64) float64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, s.n))
	}
	nv := s.m[i] + x
	if nv == 0 {
		delete(s.m, i)
	} else {
		s.m[i] = nv
	}
	return nv
}

// L1 returns the L1 norm of the sparse vector.
func (s *SparseVector) L1() float64 {
	var t float64
	for _, x := range s.m {
		t += math.Abs(x)
	}
	return t
}

// Range calls f for every nonzero entry. Iteration order is unspecified.
func (s *SparseVector) Range(f func(i int, x float64)) {
	for i, x := range s.m {
		f(i, x)
	}
}

// Dense materializes the sparse vector as a dense Vector.
func (s *SparseVector) Dense() Vector {
	v := NewVector(s.n)
	for i, x := range s.m {
		v[i] = x
	}
	return v
}
