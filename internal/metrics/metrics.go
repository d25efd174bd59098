// Package metrics provides the measurement plumbing shared by every
// experiment in the repository: latency sample series with percentile
// and CDF extraction, timestamped time series, and prediction-error
// scores. (Bucketed histograms live in internal/obs.)
//
// All of the paper's figures are ultimately rendered from these types:
// latency-versus-request plots are Series, the Fig. 1(b) long-tail plot
// is a CDF, Fig. 10 prediction traces are TimeSeries, and Fig. 15
// resource monitoring is a pair of TimeSeries.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series collects float64 samples (usually latencies in milliseconds)
// in arrival order and answers distribution queries. The zero value is
// ready to use.
type Series struct {
	samples []float64
	sorted  []float64 // lazily maintained sorted copy
	dirty   bool
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.samples = append(s.samples, v)
	s.dirty = true
}

// AddDuration appends a duration sample converted to milliseconds.
func (s *Series) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Values returns the samples in arrival order. The slice aliases the
// series' internal storage; because callers historically sort or scale
// it in place, handing it out invalidates the lazily-sorted cache so
// the next distribution query re-sorts against the current contents.
func (s *Series) Values() []float64 {
	s.dirty = true
	return s.samples
}

// At returns the i-th sample in arrival order.
func (s *Series) At(i int) float64 { return s.samples[i] }

func (s *Series) ensureSorted() {
	if !s.dirty && s.sorted != nil {
		return
	}
	s.sorted = append(s.sorted[:0], s.samples...)
	sort.Float64s(s.sorted)
	s.dirty = false
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.sorted[0]
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.sorted[len(s.sorted)-1]
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Stddev returns the population standard deviation, or 0 when there are
// fewer than two samples.
func (s *Series) Stddev() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.samples {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty
// series and panics on out-of-range p.
func (s *Series) Percentile(p float64) float64 {
	// NaN compares false against every bound, so it needs its own check
	// or it would slip through and index with an undefined rank.
	if math.IsNaN(p) || p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range [0,100]", p))
	}
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	if len(s.sorted) == 1 {
		return s.sorted[0]
	}
	rank := p / 100 * float64(len(s.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi > len(s.sorted)-1 { // guard float rounding at p near 100
		hi = len(s.sorted) - 1
	}
	if lo >= hi {
		return s.sorted[hi]
	}
	frac := rank - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// Median is Percentile(50).
func (s *Series) Median() float64 { return s.Percentile(50) }

// P99 is Percentile(99) — the tail quantile every resilience and
// latency table reports.
func (s *Series) P99() float64 { return s.Percentile(99) }

// Quantiles returns the given percentiles (each in [0, 100]) in one
// call, so report code does not reimplement percentile extraction.
func (s *Series) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.Percentile(p)
	}
	return out
}

// Sum returns the total of all samples.
func (s *Series) Sum() float64 {
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return sum
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // fraction of samples <= Value, in (0, 1]
}

// CDF returns the empirical CDF of the series as (value, fraction)
// pairs with non-decreasing value and fraction.
func (s *Series) CDF() []CDFPoint {
	if len(s.samples) == 0 {
		return nil
	}
	s.ensureSorted()
	n := len(s.sorted)
	pts := make([]CDFPoint, 0, n)
	for i, v := range s.sorted {
		frac := float64(i+1) / float64(n)
		// Collapse runs of equal values into their final fraction.
		if len(pts) > 0 && pts[len(pts)-1].Value == v {
			pts[len(pts)-1].Fraction = frac
			continue
		}
		pts = append(pts, CDFPoint{Value: v, Fraction: frac})
	}
	return pts
}

// Summary is a compact distribution description used in reports.
type Summary struct {
	Count               int
	Min, Mean, Max      float64
	P50, P90, P99, P999 float64
	Stddev              float64
}

// Summarize computes a Summary of the series.
func (s *Series) Summarize() Summary {
	return Summary{
		Count:  s.Len(),
		Min:    s.Min(),
		Mean:   s.Mean(),
		Max:    s.Max(),
		P50:    s.Percentile(50),
		P90:    s.Percentile(90),
		P99:    s.Percentile(99),
		P999:   s.Percentile(99.9),
		Stddev: s.Stddev(),
	}
}

// String renders the summary for reports: count, mean and tail.
func (m Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		m.Count, m.Min, m.Mean, m.P50, m.P90, m.P99, m.Max)
}

// TimePoint is a (virtual time, value) pair.
type TimePoint struct {
	T time.Duration
	V float64
}

// TimeSeries records values against virtual timestamps, e.g. the number
// of live containers per control interval or CPU usage per sample tick.
type TimeSeries struct {
	points []TimePoint
}

// Add appends a point; timestamps must be non-decreasing.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if n := len(ts.points); n > 0 && t < ts.points[n-1].T {
		panic(fmt.Sprintf("metrics: time series timestamps must be non-decreasing (%v after %v)", t, ts.points[n-1].T))
	}
	ts.points = append(ts.points, TimePoint{T: t, V: v})
}

// Len reports the number of points.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Points returns the underlying points; callers must not modify them.
func (ts *TimeSeries) Points() []TimePoint { return ts.points }

// At returns point i.
func (ts *TimeSeries) At(i int) TimePoint { return ts.points[i] }

// Values returns just the values, in time order.
func (ts *TimeSeries) Values() []float64 {
	vs := make([]float64, len(ts.points))
	for i, p := range ts.points {
		vs[i] = p.V
	}
	return vs
}

// MaxValue returns the largest value, or 0 for an empty series.
func (ts *TimeSeries) MaxValue() float64 {
	max := 0.0
	for i, p := range ts.points {
		if i == 0 || p.V > max {
			max = p.V
		}
	}
	return max
}

// MeanValue returns the arithmetic mean of the values.
func (ts *TimeSeries) MeanValue() float64 {
	if len(ts.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ts.points {
		sum += p.V
	}
	return sum / float64(len(ts.points))
}

// AutoCorrelation estimates the lag-k autocorrelation of a series: the
// correlation between x[t] and x[t+k] over the available pairs. It
// returns 0 for degenerate inputs (fewer than k+2 points or zero
// variance). The predictor diagnostics use it to characterise which
// error structures the Markov correction can exploit.
func AutoCorrelation(xs []float64, k int) float64 {
	if k < 1 || len(xs) < k+2 {
		return 0
	}
	n := len(xs)
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	num, den := 0.0, 0.0
	for t := 0; t < n; t++ {
		d := xs[t] - mean
		den += d * d
		if t+k < n {
			num += d * (xs[t+k] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MeanAbsError returns the mean absolute error between two equal-length
// slices; it is used to score predictors in Fig. 10.
func MeanAbsError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: MeanAbsError length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum / float64(len(a))
}

// MeanRelError returns the mean relative error |a-b|/max(|b|, eps)
// between predictions a and truth b.
func MeanRelError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: MeanRelError length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	const eps = 1e-9
	sum := 0.0
	for i := range a {
		den := math.Abs(b[i])
		if den < eps {
			den = eps
		}
		sum += math.Abs(a[i]-b[i]) / den
	}
	return sum / float64(len(a))
}
