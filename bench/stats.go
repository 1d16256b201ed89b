package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the figure is one or two slow requests, not a property of the run.
const minBeyond = 10

// percentile returns the exact nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond counts the samples strictly above the nearest-rank
// p-quantile's position.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// steadyP95 is the 95th percentile of a sample given in the order it was
// taken, made robust to a burst of interference: the sample is cut into up to
// eight consecutive windows of at least minWindow values, and the median of
// the windows' percentiles is returned. A sample too small to cut is one
// window, and the result is its plain percentile.
func steadyP95(inOrder []float64) float64 {
	const minWindow = 20 * minBeyond // so that minBeyond samples lie beyond each window's p95
	k := min(max(len(inOrder)/minWindow, 1), rateWindows)
	tails := make([]float64, k)
	for i := range tails {
		w := append([]float64(nil), inOrder[i*len(inOrder)/k:(i+1)*len(inOrder)/k]...)
		sort.Float64s(w)
		tails[i] = percentile(w, 0.95)
	}
	return median(tails)
}

// median sorts a copy of v and returns its middle (mean of the two middles
// for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method) computes them — the rule the driver applies to
// ten runs. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// openSchedule draws the due times of an open-loop phase: Poisson arrivals
// at rate per second for dur, as offsets from the phase start. The schedule
// is fixed before the phase runs, so a stalled server can delay when a
// request is sent but never when it was due.
func openSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s by inverting
// the cumulative distribution (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
