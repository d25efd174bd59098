package main

import (
	"fmt"
	"math"
	"sort"
)

// segments is how many equal-count runs a window is cut into; the
// end-to-end rates and latencies are the median over them.
const segments = 5

// minBeyond is the sample floor for a percentile: the guide's "at
// least ten samples beyond it". A p99 over 600 requests is six
// numbers, not a percentile, and is refused instead of printed.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentileFloor is percentile with the sample floor enforced: when
// fewer than minBeyond samples lie beyond the rank it returns ok=false
// and the reason to print next to the null.
func percentileFloor(sorted []float64, p float64) (v float64, ok bool, reason string) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, false, fmt.Sprintf("%d samples leave %d beyond p%g, need %d", n, max(beyond, 0), p*100, minBeyond)
	}
	return percentile(sorted, p), true, ""
}

// sortedCopy returns an ascending copy.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// p50 is the nearest-rank median of an unsorted slice: always one of
// the samples, as the latency percentiles are.
func p50(v []float64) float64 { return percentile(sortedCopy(v), 0.50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is how the benchmark driver takes run-to-run spread. It needs at
// least two values.
func quartiles(v []float64) (q [3]float64) {
	s := sortedCopy(v)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the distance between the first and third quartile of
// repeated measurements of one quantity, as a share of their median:
// over the segments of a window, or the batches of a direct timing. 0
// for fewer than two values or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q := quartiles(v)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// segmentBounds splits n items into k consecutive equal-count runs
// (the last takes the remainder) and returns the k+1 boundaries.
func segmentBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// segmentThroughput splits completions (ascending nanosecond offsets
// from the window start) into k equal-count segments and returns each
// segment's rate per second: its count over the wall time from the
// previous segment's last completion (the window start for the first)
// to its own. Equal counts rather than equal durations keep a paced
// run from reading exactly rate*duration in every segment.
func segmentThroughput(doneNs []int64, k int) []float64 {
	if len(doneNs) < k {
		return nil
	}
	b := segmentBounds(len(doneNs), k)
	out := make([]float64, 0, k)
	prev := int64(0)
	for i := 0; i < k; i++ {
		end := doneNs[b[i+1]-1]
		if el := end - prev; el > 0 {
			out = append(out, float64(b[i+1]-b[i])/(float64(el)/1e9))
		}
		prev = end
	}
	return out
}

// segmentApply evaluates f on each of k equal-count consecutive runs
// of v (in the order given, i.e. completion order).
func segmentApply(v []float64, k int, f func([]float64) float64) []float64 {
	if len(v) < k {
		return nil
	}
	b := segmentBounds(len(v), k)
	out := make([]float64, k)
	for i := range out {
		out[i] = f(v[b[i]:b[i+1]])
	}
	return out
}

// pacer is a fixed arrival schedule: request i is due at i*interval
// from the window start, whatever happened to requests before it.
type pacer struct {
	intervalNs int64
}

func newPacer(ratePerSec float64) pacer {
	return pacer{intervalNs: int64(1e9 / ratePerSec)}
}

func (p pacer) due(i int) int64 { return int64(i) * p.intervalNs }

// dueLatency is the open-loop latency and generator lag of one
// request: latency runs from when the request was due, not from when
// the generator got round to sending it, so a stall charges the
// requests queued behind it; lag is how late the send was.
func dueLatency(dueNs, sentNs, doneNs int64) (latencyNs, lagNs int64) {
	return doneNs - dueNs, sentNs - dueNs
}
