package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// percentileLadder is the set of percentiles the benchmark reports.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest ladder percentile that still has
// at least ten samples beyond it in a sample of n. A tail read from
// fewer than ten samples is one slow call, not a distribution.
func tailPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// The small epsilon keeps n*(1-p) from landing at 9.999… when
		// the exact product is 10.
		if float64(n)*(1-p)+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// quantile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks. An empty sample reads 0.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns Q1, median and Q3 by the exclusive method that
// Python's statistics.quantiles(v, n=4) uses, so the spread the
// self-check prints is the spread the acceptance driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// iqrRatio is the distance between the quartiles as a share of the
// median: the run-to-run (or slice-to-slice) spread.
func iqrRatio(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// slice is one cut of the measurement window.
type slice struct {
	seconds float64 // wall time the slice covered
	ops     float64 // operations completed in it
	cpuUS   float64 // process user+system CPU spent in it
}

// medianOfSlices reduces the window's slices to the two rate metrics:
// the median slice's ops/s and the median slice's CPU µs per op. A
// slice with no completed op contributes no CPU-per-op reading.
func medianOfSlices(ss []slice) (opsPerSec, cpuUSPerOp float64, rates []float64) {
	var cpus []float64
	for _, s := range ss {
		if s.seconds <= 0 {
			continue
		}
		rates = append(rates, s.ops/s.seconds)
		if s.ops > 0 {
			cpus = append(cpus, s.cpuUS/s.ops)
		}
	}
	return median(rates), median(cpus), rates
}

// samples is a fixed-capacity, lock-free sample recorder. The capacity
// is sized for the window up front so recording never allocates inside
// the measurement; samples past it are counted and dropped.
type samples struct {
	buf     []int64
	n       atomic.Int64
	dropped atomic.Int64
}

func newSamples(capacity int) *samples { return &samples{buf: make([]int64, capacity)} }

func (s *samples) add(v int64) {
	i := s.n.Add(1) - 1
	if int(i) < len(s.buf) {
		s.buf[i] = v
		return
	}
	s.dropped.Add(1)
}

func (s *samples) count() int {
	n := int(s.n.Load())
	if n > len(s.buf) {
		n = len(s.buf)
	}
	return n
}

// sorted returns the recorded values as an ascending float slice.
func (s *samples) sorted() []float64 {
	n := s.count()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(s.buf[i])
	}
	sort.Float64s(out)
	return out
}

// pct reads the p-quantile of the recorded values.
func (s *samples) pct(p float64) float64 { return quantile(s.sorted(), p) }
