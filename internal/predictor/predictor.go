// Package predictor implements the demand-prediction algorithms of
// §IV.C: exponential smoothing (Eq. 1) to follow the trend of how many
// containers of a runtime type are needed, a Markov chain over region
// states (Eq. 2) to absorb random volatility, and the combined
// ES+Markov predictor that HotC's adaptive live-container control
// (Algorithm 3) uses.
//
// All predictors share the same protocol: Observe one demand sample
// per control interval, then Predict the next interval's demand. The
// Backtest helper produces the one-step-ahead prediction series used
// for the Fig. 10 evaluation.
package predictor

import (
	"fmt"
	"math"
	"sort"
)

// Predictor is a one-step-ahead time-series forecaster.
type Predictor interface {
	// Name identifies the strategy in reports.
	Name() string
	// Observe records the actual demand of the interval that just
	// ended.
	Observe(v float64)
	// Predict forecasts the next interval's demand. With no
	// observations it returns 0.
	Predict() float64
}

// DefaultAlpha is the smoothing coefficient the paper selects: "In
// this research, we choose α as 0.8" (§IV.C.2) — a large α because
// serverless request series fluctuate significantly.
const DefaultAlpha = 0.8

// DefaultInitWindow is the number of leading observations averaged to
// seed the smoothed value: "the average value of the first five
// historical data can be used" (§IV.C.2).
const DefaultInitWindow = 5

// ES is the exponential smoothing predictor of Eq. 1:
//
//	e[t] = α·history[t] + (1−α)·e[t−1]
//
// The initial value is the mean of the first InitWindow observations,
// per §IV.C.2.
type ES struct {
	// Alpha is the smoothing coefficient in (0, 1).
	Alpha float64
	// InitWindow is the number of leading samples averaged for the
	// initial value.
	InitWindow int

	seen    int
	leadSum float64
	est     float64
}

// NewES returns an exponential smoother with the given α and the
// paper's default initialisation window. It panics if α is outside
// (0, 1).
func NewES(alpha float64) *ES {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("predictor: alpha %v outside (0,1)", alpha))
	}
	return &ES{Alpha: alpha, InitWindow: DefaultInitWindow}
}

// Name implements Predictor.
func (e *ES) Name() string { return fmt.Sprintf("es(α=%.2f)", e.Alpha) }

// Observe implements Predictor.
func (e *ES) Observe(v float64) {
	e.seen++
	if e.seen <= e.InitWindow {
		// Still building the initial value: the smoothed estimate is
		// the running mean of the leading samples.
		e.leadSum += v
		e.est = e.leadSum / float64(e.seen)
		return
	}
	e.est = e.Alpha*v + (1-e.Alpha)*e.est
}

// Predict implements Predictor.
func (e *ES) Predict() float64 {
	if e.seen == 0 {
		return 0
	}
	return e.est
}

// Markov is the region-state Markov chain predictor of Eq. 2. The
// observed value range is divided into States equal intervals
// R_i = [R_i1, R_i2]; transitions between consecutive observations are
// counted into a transition matrix; the forecast is the midpoint of
// the most likely next state given the current one:
//
//	e[k+1] = (R_i1 + R_i2) / 2
type Markov struct {
	// States is the number of region states n.
	States int

	obs []float64 // the newest observations, at most markovWindow
	min float64   // running over everything ever observed
	max float64
	row []float64 // scratch for transitionRow
}

// markovWindow bounds the observation history: a predictor ticking
// every control interval would otherwise grow, and pay for, its whole
// lifetime. Past it the newest half is kept, the way Combined bounds
// its error window.
const markovWindow = 1024

// DefaultStates is the region-state count used when the caller does
// not specify one.
const DefaultStates = 8

// NewMarkov returns a Markov-chain predictor with n region states. It
// panics if n < 2.
func NewMarkov(n int) *Markov {
	if n < 2 {
		panic(fmt.Sprintf("predictor: markov needs >= 2 states, got %d", n))
	}
	return &Markov{States: n}
}

// Name implements Predictor.
func (m *Markov) Name() string { return fmt.Sprintf("markov(n=%d)", m.States) }

// Observe implements Predictor.
func (m *Markov) Observe(v float64) {
	if len(m.obs) == 0 {
		m.min, m.max = v, v
	} else {
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
	}
	m.obs = append(m.obs, v)
	if len(m.obs) > markovWindow {
		m.obs = m.obs[:copy(m.obs, m.obs[len(m.obs)-markovWindow/2:])]
	}
}

// stateOf maps a value to its region state index in [0, States).
func (m *Markov) stateOf(v float64) int {
	if m.max <= m.min {
		return 0
	}
	width := (m.max - m.min) / float64(m.States)
	i := int((v - m.min) / width)
	if i >= m.States {
		i = m.States - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// midpoint returns the centre value of region state i.
func (m *Markov) midpoint(i int) float64 {
	if m.max <= m.min {
		return m.min
	}
	width := (m.max - m.min) / float64(m.States)
	return m.min + (float64(i)+0.5)*width
}

// TransitionMatrix estimates the k-step transition probability matrix
// P(k) from the observation history: P_ij(k) = T_ij(k)/T_i, where T_i
// counts visits to state R_i with a successor k steps later and
// T_ij(k) counts transitions R_i -> R_j after k steps (Eq. 2). Rows
// with no data are uniform.
func (m *Markov) TransitionMatrix(k int) [][]float64 {
	if k < 1 {
		panic(fmt.Sprintf("predictor: transition step k=%d must be >= 1", k))
	}
	p := make([][]float64, m.States)
	for i := range p {
		p[i] = append([]float64(nil), m.transitionRow(i, k)...)
	}
	return p
}

// transitionRow estimates row cur of P(k) — the only row a forecast
// reads — into a scratch slice that the next call overwrites.
func (m *Markov) transitionRow(cur, k int) []float64 {
	if cap(m.row) < m.States {
		m.row = make([]float64, m.States)
	}
	row := m.row[:m.States]
	for j := range row {
		row[j] = 0
	}
	total := 0.0
	for t := 0; t+k < len(m.obs); t++ {
		if m.stateOf(m.obs[t]) == cur {
			row[m.stateOf(m.obs[t+k])]++
			total++
		}
	}
	for j := range row {
		if total == 0 {
			row[j] = 1 / float64(m.States)
		} else {
			row[j] /= total
		}
	}
	return row
}

// Predict implements Predictor: from the current state (of the latest
// observation), the forecast is the midpoint of the most likely next
// state under the 1-step transition matrix.
func (m *Markov) Predict() float64 { return m.PredictK(1) }

// PredictK forecasts k steps ahead using the k-step transition matrix
// P(k) of Eq. 2: the forecast is the midpoint of the most likely state
// k steps from the current one. PredictK(1) equals Predict.
func (m *Markov) PredictK(k int) float64 {
	n := len(m.obs)
	if n == 0 {
		return 0
	}
	if n <= k || m.max <= m.min {
		return m.obs[n-1]
	}
	cur := m.stateOf(m.obs[n-1])
	return m.midpoint(argmaxFrom(m.transitionRow(cur, k), cur))
}

// argmaxFrom returns the index of the largest element of row, breaking
// ties toward seed: starting the scan with best=seed at its actual
// probability means a row with no dominant transition (e.g. a uniform
// never-visited state) forecasts staying put instead of collapsing to
// the minimum-demand region at index 0.
func argmaxFrom(row []float64, seed int) int {
	best, bestP := seed, row[seed]
	for j, pj := range row {
		if pj > bestP {
			best, bestP = j, pj
		}
	}
	return best
}

// PredictExpected forecasts the next value as the probability-weighted
// average of region-state midpoints under the 1-step transition matrix
// (the expectation rather than the maximum-likelihood state). The
// Combined predictor uses this smoother form for its error correction.
func (m *Markov) PredictExpected() float64 {
	n := len(m.obs)
	if n == 0 {
		return 0
	}
	if n == 1 || m.max <= m.min {
		return m.obs[n-1]
	}
	sum := 0.0
	for j, pj := range m.transitionRow(m.stateOf(m.obs[n-1]), 1) {
		sum += pj * m.midpoint(j)
	}
	return sum
}

// Combined is HotC's predictor (§IV.C.3): exponential smoothing fits
// the trend of the non-stationary series, and a Markov chain over the
// *relative error* of the smoothing predictions absorbs volatility:
//
//	corrected = es_forecast + E[next_error | error state] × |es_forecast|
//
// Forecasts are clamped to be non-negative (a container count).
//
// The error chain follows Eq. 2 — relative errors are discretised into
// region states over intervals determined from historical data, and
// transitions counted — with three estimation refinements over the
// bare construction (each kept because it measurably improves accuracy
// on the paper's workload shapes, see the fig10 bench and ablations):
// the correction is the conditional expectation of the successor error
// rather than a state midpoint (no discretisation bias); the state
// intervals span the winsorized error range so a single jump outlier
// cannot blur the informative small errors together; and the applied
// correction is shrunk by its standard error, so states whose
// successors are statistically indistinguishable from noise contribute
// nothing instead of adding variance.
type Combined struct {
	es     *ES
	states int
	warmup int // observations before corrections kick in
	seen   int

	errs   []float64 // relative-error history of the ES forecast, oldest first
	sorted []float64 // the same values in ascending order, kept so by Observe
	bins   []uint8   // scratch for nextErr: the region state of each error
}

// The error window: past errWindowMax relative errors the newest
// errWindowKeep are kept, so state estimation stays cheap and adapts to
// workload drift.
const (
	errWindowMax  = 512
	errWindowKeep = 256
)

// NewCombined returns the ES+Markov predictor with the given α and
// number of error region states.
func NewCombined(alpha float64, states int) *Combined {
	if states < 2 || states > math.MaxUint8+1 {
		panic(fmt.Sprintf("predictor: combined needs 2..%d error states, got %d", math.MaxUint8+1, states))
	}
	return &Combined{
		es:     NewES(alpha),
		states: states,
		warmup: DefaultInitWindow,
	}
}

// Default returns the predictor with the paper's parameters (α = 0.8).
func Default() *Combined { return NewCombined(DefaultAlpha, DefaultStates) }

// Name implements Predictor.
func (c *Combined) Name() string { return "hotc(es+markov)" }

// Observe implements Predictor.
func (c *Combined) Observe(v float64) {
	// Record the relative error of the forecast we would have made for
	// this interval, then update the trend.
	if c.seen > 0 {
		base := c.es.Predict()
		den := math.Abs(base)
		if den < 1 {
			den = 1 // relative error of a near-zero forecast: use absolute scale
		}
		c.recordErr((v - base) / den)
	}
	c.es.Observe(v)
	c.seen++
}

// recordErr appends e to the error window and files it into the sorted
// copy by binary search, so nextErr reads its two order statistics
// without sorting; only the truncation re-sorts, once per
// errWindowMax-errWindowKeep observations.
func (c *Combined) recordErr(e float64) {
	c.errs = append(c.errs, e)
	if len(c.errs) > errWindowMax {
		c.errs = c.errs[:copy(c.errs, c.errs[len(c.errs)-errWindowKeep:])]
		c.sorted = append(c.sorted[:0], c.errs...)
		sort.Float64s(c.sorted)
		return
	}
	i := sort.SearchFloat64s(c.sorted, e)
	c.sorted = append(c.sorted, 0)
	copy(c.sorted[i+1:], c.sorted[i:])
	c.sorted[i] = e
}

// nextErr is the Markov correction: the conditional expectation of the
// successor error given the current error's region state, estimated by
// counting transitions in the error history. Region states are
// equal-width intervals over the *winsorized* error range (5th to 95th
// percentile, outliers clamped into the edge states) — the paper's
// "interval can be determined based on historical data" — so a single
// outlier error from a demand jump cannot stretch the partition and
// blur the informative small errors together.
func (c *Combined) nextErr() float64 {
	n := len(c.errs)
	if n < 2 {
		return 0
	}
	lo := c.sorted[n*5/100]
	hi := c.sorted[n-1-n*5/100]
	if hi <= lo {
		return 0 // errors essentially constant: nothing to learn
	}
	width := (hi - lo) / float64(c.states)
	if cap(c.bins) < n {
		c.bins = make([]uint8, errWindowMax)
	}
	bins := c.bins[:n]
	for t, e := range c.errs {
		s := int((e - lo) / width)
		if s < 0 {
			s = 0
		} else if s >= c.states {
			s = c.states - 1
		}
		bins[t] = uint8(s)
	}
	// successors summarises the errors that followed an error in state
	// cur — and, when prev >= 0, preceded by one in state prev.
	successors := func(cur uint8, prev int) (float64, float64, int) {
		sum, sum2, count := 0.0, 0.0, 0
		start := 0
		if prev >= 0 {
			start = 1
		}
		for t := start; t+1 < n; t++ {
			if bins[t] != cur || (prev >= 0 && int(bins[t-1]) != prev) {
				continue
			}
			sum += c.errs[t+1]
			sum2 += c.errs[t+1] * c.errs[t+1]
			count++
		}
		if count == 0 {
			return 0, 0, 0
		}
		mean := sum / float64(count)
		variance := sum2/float64(count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		return mean, variance, count
	}
	// Second-order conditioning: the pair (previous state, current
	// state) disambiguates a sustained ramp (lag, lag) from alternating
	// plateau noise (over, under), which share single-state bins.
	// Sparse pairs fall back to first-order conditioning.
	cur := bins[n-1]
	var mean, variance float64
	var count int
	if n >= 3 {
		mean, variance, count = successors(cur, int(bins[n-2]))
	}
	if count < 4 {
		mean, variance, count = successors(cur, -1)
	}
	if count == 0 {
		return 0
	}
	// Shrink the correction by its standard error: in states whose
	// successor errors are pure noise the estimate is not
	// distinguishable from zero and applying it would only add
	// variance; on systematic-lag states (ramps) the mean dwarfs the
	// standard error and survives almost untouched.
	stderr := math.Sqrt(variance / float64(count))
	mag := math.Abs(mean) - stderr
	if mag <= 0 {
		return 0
	}
	if mean < 0 {
		return -mag
	}
	return mag
}

// Predict implements Predictor.
func (c *Combined) Predict() float64 {
	base := c.es.Predict()
	if c.seen <= c.warmup {
		return clampNonNegative(base)
	}
	den := math.Abs(base)
	if den < 1 {
		den = 1
	}
	return clampNonNegative(base + c.nextErr()*den)
}

func clampNonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Seasonal is the periodic-analysis predictor the paper's §III.B
// attributes to industry practice ("they used periodic data analysis
// ... to improve the accuracy"): it predicts the value observed one
// period ago (seasonal naive), falling back to the last value until a
// full period of history exists. It shines on workloads with strict
// daily/weekly periodicity and fails on aperiodic ones — the ablation
// table contrasts it with HotC's ES+Markov.
type Seasonal struct {
	// Period is the season length in observations.
	Period int

	obs []float64
}

// NewSeasonal returns a seasonal-naive predictor with the given period.
// It panics if period < 1.
func NewSeasonal(period int) *Seasonal {
	if period < 1 {
		panic(fmt.Sprintf("predictor: seasonal period %d must be >= 1", period))
	}
	return &Seasonal{Period: period}
}

// Name implements Predictor.
func (s *Seasonal) Name() string { return fmt.Sprintf("seasonal(period=%d)", s.Period) }

// Observe implements Predictor.
func (s *Seasonal) Observe(v float64) {
	s.obs = append(s.obs, v)
	if len(s.obs) > 8*s.Period && s.Period > 1 {
		s.obs = s.obs[len(s.obs)-4*s.Period:]
	}
}

// Predict implements Predictor: the observation one period back.
func (s *Seasonal) Predict() float64 {
	n := len(s.obs)
	if n == 0 {
		return 0
	}
	// The next value is forecast by the observation Period-1 behind
	// the latest (which itself is one period before the next).
	if n >= s.Period {
		return s.obs[n-s.Period]
	}
	return s.obs[n-1]
}

// Naive predicts the last observed value; it is the no-intelligence
// baseline for ablations.
type Naive struct {
	seen bool
	last float64
}

// NewNaive returns a last-value predictor.
func NewNaive() *Naive { return &Naive{} }

// Name implements Predictor.
func (n *Naive) Name() string { return "naive(last-value)" }

// Observe implements Predictor.
func (n *Naive) Observe(v float64) { n.last, n.seen = v, true }

// Predict implements Predictor.
func (n *Naive) Predict() float64 {
	if !n.seen {
		return 0
	}
	return n.last
}

// Backtest runs pred over the series, producing the one-step-ahead
// forecast for each element: out[i] is the prediction made *before*
// observing series[i]. This is the Fig. 10 evaluation protocol.
func Backtest(pred Predictor, series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		out[i] = pred.Predict()
		pred.Observe(v)
	}
	return out
}
