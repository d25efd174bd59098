package predictor

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hotc/internal/metrics"
	"hotc/internal/rng"
)

func TestESRecursion(t *testing.T) {
	e := NewES(0.8)
	e.InitWindow = 1
	e.Observe(10) // initial value = 10
	e.Observe(20) // 0.8*20 + 0.2*10 = 18
	if got := e.Predict(); math.Abs(got-18) > 1e-9 {
		t.Fatalf("Predict = %v, want 18", got)
	}
	e.Observe(10) // 0.8*10 + 0.2*18 = 11.6
	if got := e.Predict(); math.Abs(got-11.6) > 1e-9 {
		t.Fatalf("Predict = %v, want 11.6", got)
	}
}

func TestESInitialValueIsLeadingMean(t *testing.T) {
	// §IV.C.2: initial value = mean of the first five samples.
	e := NewES(0.8)
	lead := []float64{2, 4, 6, 8, 10} // mean 6
	for _, v := range lead {
		e.Observe(v)
	}
	if got := e.Predict(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("initial estimate = %v, want mean 6", got)
	}
	// The sixth observation applies the recursion to the seeded value.
	e.Observe(16) // 0.8*16 + 0.2*6 = 14
	if got := e.Predict(); math.Abs(got-14) > 1e-9 {
		t.Fatalf("after seed = %v, want 14", got)
	}
}

func TestESEmpty(t *testing.T) {
	if NewES(0.5).Predict() != 0 {
		t.Fatal("empty ES should predict 0")
	}
}

func TestESInvalidAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			NewES(a)
		}()
	}
}

// §IV.C.2: larger α makes the forecast track recent data faster.
func TestESAlphaSensitivity(t *testing.T) {
	series := make([]float64, 30)
	for i := range series {
		series[i] = 10
	}
	series[29] = 100 // a sudden jump at the end

	small := NewES(0.1)
	large := NewES(0.8)
	for _, v := range series {
		small.Observe(v)
		large.Observe(v)
	}
	if large.Predict() <= small.Predict() {
		t.Fatalf("large α (%v) should chase the jump harder than small α (%v)",
			large.Predict(), small.Predict())
	}
}

// ES stays within the convex hull of history (weights sum to 1).
func TestPropertyESConvexHull(t *testing.T) {
	f := func(raw []uint16, alphaPct uint8) bool {
		alpha := 0.05 + float64(alphaPct%90)/100
		e := NewES(alpha)
		min, max := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			e.Observe(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			p := e.Predict()
			if p < min-1e-6 || p > max+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovConstantSeries(t *testing.T) {
	m := NewMarkov(4)
	for i := 0; i < 10; i++ {
		m.Observe(7)
	}
	if got := m.Predict(); got != 7 {
		t.Fatalf("constant series predicted %v, want 7", got)
	}
}

func TestMarkovEmptyAndSingle(t *testing.T) {
	m := NewMarkov(4)
	if m.Predict() != 0 {
		t.Fatal("empty markov should predict 0")
	}
	m.Observe(5)
	if m.Predict() != 5 {
		t.Fatal("single observation should predict itself")
	}
}

func TestMarkovInvalidStatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMarkov(1) did not panic")
		}
	}()
	NewMarkov(1)
}

func TestMarkovAlternatingSeries(t *testing.T) {
	// A strictly alternating low/high series: from the low state the
	// most likely successor is the high state and vice versa.
	m := NewMarkov(2)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			m.Observe(0)
		} else {
			m.Observe(100)
		}
	}
	// Last observation was high (i=19 odd -> 100): predict low half.
	if got := m.Predict(); got > 50 {
		t.Fatalf("after high, alternation should predict low, got %v", got)
	}
	m.Observe(0)
	if got := m.Predict(); got < 50 {
		t.Fatalf("after low, alternation should predict high, got %v", got)
	}
}

// Regression: a constant series followed by a step lands the chain in
// a region state it has never left before — a no-data (uniform) row.
// Arg-max ties must break toward the *current* state, so the forecast
// stays at the new level; the old code broke ties toward state index 0
// and forecast the minimum region midpoint, systematically
// under-provisioning right after every demand jump.
func TestMarkovTieBreaksTowardCurrentState(t *testing.T) {
	m := NewMarkov(8)
	for i := 0; i < 5; i++ {
		m.Observe(10)
	}
	m.Observe(100) // step into a state with no observed successors

	// The current state's region is the top interval [~88.75, 100]; the
	// forecast must stay in it, not collapse to the bottom region.
	if got := m.Predict(); got < 80 {
		t.Fatalf("after step to 100, Predict = %v, want the current (high) region midpoint", got)
	}

	// Same discipline k steps ahead.
	if got := m.PredictK(2); got < 80 {
		t.Fatalf("after step to 100, PredictK(2) = %v, want the current (high) region midpoint", got)
	}
}

func TestMarkovTransitionMatrixRowStochastic(t *testing.T) {
	src := rng.New(5)
	m := NewMarkov(6)
	for i := 0; i < 500; i++ {
		m.Observe(src.Float64() * 100)
	}
	for _, k := range []int{1, 2, 5} {
		p := m.TransitionMatrix(k)
		for i, row := range p {
			sum := 0.0
			for _, v := range row {
				if v < 0 || v > 1 {
					t.Fatalf("P(%d)[%d] has out-of-range prob %v", k, i, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("P(%d) row %d sums to %v", k, i, sum)
			}
		}
	}
}

func TestMarkovTransitionMatrixBadStep(t *testing.T) {
	m := NewMarkov(3)
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	m.TransitionMatrix(0)
}

func TestMarkovPredictK(t *testing.T) {
	// Strictly alternating series: one step ahead lands in the other
	// state, two steps ahead lands back in the current state.
	m := NewMarkov(2)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			m.Observe(0)
		} else {
			m.Observe(100)
		}
	}
	// Last observation: i=39 odd -> 100 (high).
	if got := m.PredictK(1); got > 50 {
		t.Fatalf("PredictK(1) = %v, want low", got)
	}
	if got := m.PredictK(2); got < 50 {
		t.Fatalf("PredictK(2) = %v, want high", got)
	}
	if m.PredictK(1) != m.Predict() {
		t.Fatal("PredictK(1) must equal Predict")
	}
}

func TestMarkovPredictKDegenerate(t *testing.T) {
	m := NewMarkov(3)
	if m.PredictK(2) != 0 {
		t.Fatal("empty PredictK != 0")
	}
	m.Observe(7)
	m.Observe(7)
	// k beyond history length: fall back to last value.
	if m.PredictK(10) != 7 {
		t.Fatal("short-history PredictK should return last value")
	}
}

func TestNaive(t *testing.T) {
	n := NewNaive()
	if n.Predict() != 0 {
		t.Fatal("empty naive should predict 0")
	}
	n.Observe(3)
	n.Observe(9)
	if n.Predict() != 9 {
		t.Fatalf("naive = %v, want 9", n.Predict())
	}
}

func TestCombinedNonNegative(t *testing.T) {
	c := Default()
	// A crashing series can push the corrected forecast negative; it
	// must clamp (container counts cannot be negative).
	for _, v := range []float64{100, 80, 50, 20, 5, 1, 0, 0, 0, 0, 0, 0} {
		c.Observe(v)
		if c.Predict() < 0 {
			t.Fatalf("negative forecast %v", c.Predict())
		}
	}
}

func TestCombinedWarmupEqualsES(t *testing.T) {
	c := NewCombined(0.8, 4)
	e := NewES(0.8)
	for _, v := range []float64{3, 5, 4} {
		c.Observe(v)
		e.Observe(v)
	}
	if math.Abs(c.Predict()-e.Predict()) > 1e-9 {
		t.Fatalf("during warmup combined (%v) should equal ES (%v)", c.Predict(), e.Predict())
	}
}

// Fig. 10(a): on workloads where ES systematically lags (ramps with
// resets — the shape of the paper's linear and diurnal request
// patterns), ES+Markov tracks the real values more closely than ES
// alone because the error chain learns the lag and corrects it.
func TestFig10CombinedBeatsESOnTrendingSeries(t *testing.T) {
	src := rng.New(77)
	var series []float64
	for i := 0; i < 200; i++ {
		v := float64(2 * (i%20 + 1)) // ramp 2..40, then reset
		series = append(series, math.Max(0, v+src.Norm(0, 1)))
	}
	esPred := Backtest(NewES(DefaultAlpha), series)
	combPred := Backtest(Default(), series)

	// Score only after warmup.
	esErr := metrics.MeanAbsError(esPred[10:], series[10:])
	combErr := metrics.MeanAbsError(combPred[10:], series[10:])
	if combErr >= esErr {
		t.Fatalf("combined MAE %.3f should beat ES MAE %.3f", combErr, esErr)
	}
}

// On a noise-dominated stationary series the correction must at least
// not blow up: combined stays within a few percent of plain ES.
func TestCombinedNoWorseOnNoisySeries(t *testing.T) {
	src := rng.New(42)
	var series []float64
	level := 8.0
	for i := 0; i < 300; i++ {
		if i%25 == 0 && i > 0 {
			if level < 15 {
				level = 19
			} else {
				level = 8
			}
		}
		series = append(series, math.Max(0, level+src.Norm(0, 2)))
	}
	esPred := Backtest(NewES(DefaultAlpha), series)
	combPred := Backtest(Default(), series)
	esErr := metrics.MeanAbsError(esPred[10:], series[10:])
	combErr := metrics.MeanAbsError(combPred[10:], series[10:])
	if combErr > esErr*1.25 {
		t.Fatalf("combined MAE %.3f is much worse than ES MAE %.3f", combErr, esErr)
	}
}

// ES alone lags a step change (§V.C: "forecast is relatively lagging");
// the combined predictor recovers faster.
func TestStepResponseLag(t *testing.T) {
	series := make([]float64, 40)
	for i := range series {
		if i < 20 {
			series[i] = 8
		} else {
			series[i] = 19
		}
	}
	esPred := Backtest(NewES(DefaultAlpha), series)
	// Immediately after the jump the ES forecast must still be near the
	// old level: the lag the paper describes.
	if esPred[20] > 10 {
		t.Fatalf("ES should lag the jump: predicted %v for t=20", esPred[20])
	}
	// And it must converge towards the new level within a few steps.
	if esPred[25] < 17 {
		t.Fatalf("ES should converge after the jump: predicted %v for t=25", esPred[25])
	}
}

func TestSeasonalExactPeriodicity(t *testing.T) {
	s := NewSeasonal(4)
	cycle := []float64{10, 20, 30, 40}
	// Feed three full cycles; after the first, every prediction is
	// exact.
	errs := 0
	for i := 0; i < 12; i++ {
		want := cycle[i%4]
		if i >= 4 && s.Predict() != want {
			errs++
		}
		s.Observe(want)
	}
	if errs != 0 {
		t.Fatalf("%d wrong predictions on an exactly periodic series", errs)
	}
}

func TestSeasonalFallbackBeforeFullPeriod(t *testing.T) {
	s := NewSeasonal(10)
	if s.Predict() != 0 {
		t.Fatal("empty seasonal should predict 0")
	}
	s.Observe(7)
	if s.Predict() != 7 {
		t.Fatal("short-history seasonal should fall back to last value")
	}
}

func TestSeasonalTrimKeepsAlignment(t *testing.T) {
	s := NewSeasonal(4)
	cycle := []float64{10, 20, 30, 40}
	for i := 0; i < 100; i++ { // far beyond the trim threshold
		s.Observe(cycle[i%4])
	}
	// Next index is 100, 100%4 == 0 -> expect 10.
	if got := s.Predict(); got != 10 {
		t.Fatalf("post-trim prediction = %v, want 10", got)
	}
}

func TestSeasonalInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeasonal(0) did not panic")
		}
	}()
	NewSeasonal(0)
}

func TestBacktestLength(t *testing.T) {
	out := Backtest(NewNaive(), []float64{1, 2, 3})
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	// First forecast is made blind.
	if out[0] != 0 {
		t.Fatalf("first forecast = %v, want 0", out[0])
	}
	if out[1] != 1 || out[2] != 2 {
		t.Fatalf("naive backtest = %v", out)
	}
}

// Property: combined forecasts are never negative and never NaN/Inf on
// arbitrary non-negative series.
func TestPropertyCombinedSane(t *testing.T) {
	f := func(raw []uint16) bool {
		c := Default()
		for _, r := range raw {
			c.Observe(float64(r % 1000))
			p := c.Predict()
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Markov forecasts stay within [min, max] of history.
func TestPropertyMarkovBounded(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		m := NewMarkov(5)
		min, max := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			m.Observe(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		p := m.Predict()
		return p >= min-1e-9 && p <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Diagnostic: on a sustained ramp, ES one-step errors are positively
// autocorrelated (the systematic lag the Markov chain corrects); on
// stationary noise they are negatively autocorrelated (overshoot
// chasing). This characterises the regimes of §IV.C.3.
func TestESErrorAutocorrelationRegimes(t *testing.T) {
	errsOf := func(series []float64) []float64 {
		pred := Backtest(NewES(DefaultAlpha), series)
		var errs []float64
		for i := 10; i < len(series); i++ {
			errs = append(errs, series[i]-pred[i])
		}
		return errs
	}

	var ramp []float64
	for i := 0; i < 200; i++ {
		ramp = append(ramp, float64(2*(i%20+1)))
	}
	if ac := metrics.AutoCorrelation(errsOf(ramp), 1); ac < 0.1 {
		t.Fatalf("ramp error lag-1 AC = %v, want positive (systematic lag)", ac)
	}

	src := rng.New(9)
	var flat []float64
	for i := 0; i < 400; i++ {
		flat = append(flat, 20+src.Norm(0, 3))
	}
	if ac := metrics.AutoCorrelation(errsOf(flat), 1); ac > -0.1 {
		t.Fatalf("stationary error lag-1 AC = %v, want negative (noise chasing)", ac)
	}
}

func TestNames(t *testing.T) {
	for _, p := range []Predictor{NewES(0.8), NewMarkov(4), Default(), NewNaive()} {
		if p.Name() == "" {
			t.Fatal("empty predictor name")
		}
	}
}

// referenceNextErr is Combined.nextErr as it was before the error
// window was kept sorted (PR 20): copy the window, sort it, read the
// two order statistics, and re-derive every error's region state inside
// two closure passes. The incremental form must return the same bits.
func referenceNextErr(errs []float64, states int) float64 {
	n := len(errs)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	lo := sorted[n*5/100]
	hi := sorted[n-1-n*5/100]
	if hi <= lo {
		return 0
	}
	width := (hi - lo) / float64(states)
	state := func(e float64) int {
		s := int((e - lo) / width)
		if s < 0 {
			return 0
		}
		if s >= states {
			return states - 1
		}
		return s
	}
	predictFrom := func(match func(t int) bool) (float64, float64, int) {
		sum, sum2, count := 0.0, 0.0, 0
		for t := 0; t+1 < n; t++ {
			if match(t) {
				sum += errs[t+1]
				sum2 += errs[t+1] * errs[t+1]
				count++
			}
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
	cur := state(errs[n-1])
	var mean, variance float64
	var count int
	if n >= 3 {
		prev := state(errs[n-2])
		mean, variance, count = predictFrom(func(t int) bool {
			return t >= 1 && state(errs[t]) == cur && state(errs[t-1]) == prev
		})
	}
	if count < 4 {
		mean, variance, count = predictFrom(func(t int) bool {
			return state(errs[t]) == cur
		})
	}
	if count == 0 {
		return 0
	}
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

func TestCombinedIncrementalWindowMatchesSort(t *testing.T) {
	const observations = 2500
	series := map[string]func(src *rng.Source, i int) float64{
		// Small integers: many duplicate errors.
		"duplicates": func(src *rng.Source, i int) float64 { return float64(src.Intn(6)) },
		// Long runs of one value, then a jump.
		"runs": func(src *rng.Source, i int) float64 { return float64(10 * ((i / 40) % 5)) },
		// Over, under, over: the error changes sign every step.
		"sign flips": func(src *rng.Source, i int) float64 {
			if i%2 == 0 {
				return 30 + src.Float64()
			}
			return 3 * src.Float64()
		},
		"diurnal noise": func(src *rng.Source, i int) float64 {
			return math.Max(0, 20+15*math.Sin(float64(i)/50)+src.Norm(0, 4))
		},
	}
	for name, next := range series {
		for _, states := range []int{4, DefaultStates} {
			src := rng.New(int64(len(name)))
			c := NewCombined(DefaultAlpha, states)
			var ref []float64 // the window, bounded the way Observe used to
			truncations := 0
			for i := 0; i < observations; i++ {
				v := next(src, i)
				if c.seen > 0 {
					base := c.es.Predict()
					ref = append(ref, (v-base)/math.Max(math.Abs(base), 1))
					if len(ref) > 512 {
						ref = ref[len(ref)-256:]
						truncations++
					}
				}
				c.Observe(v)

				if len(c.errs) != len(ref) || len(c.sorted) != len(ref) {
					t.Fatalf("%s: step %d: window holds %d errors (%d sorted), reference %d", name, i, len(c.errs), len(c.sorted), len(ref))
				}
				for j := range ref {
					if math.Float64bits(c.errs[j]) != math.Float64bits(ref[j]) {
						t.Fatalf("%s: step %d: error %d is %v, reference %v", name, i, j, c.errs[j], ref[j])
					}
				}
				if !sort.Float64sAreSorted(c.sorted) {
					t.Fatalf("%s: step %d: sorted window is out of order", name, i)
				}
				base := c.es.Predict()
				want := clampNonNegative(base)
				if c.seen > c.warmup {
					want = clampNonNegative(base + referenceNextErr(ref, states)*math.Max(math.Abs(base), 1))
				}
				if got := c.Predict(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (%d states): step %d: Predict() = %v (%#x), sort-based reference %v (%#x)",
						name, states, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if truncations < 6 {
				t.Fatalf("%s: window truncated %d times, want >= 6", name, truncations)
			}
		}
	}
}

func TestCombinedRejectsUnrepresentableStateCounts(t *testing.T) {
	for _, states := range []int{1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCombined(0.8, %d) did not panic", states)
				}
			}()
			NewCombined(0.8, states)
		}()
	}
	NewCombined(0.8, 256)
}

// A bare Markov predictor ticking every control interval used to keep,
// and re-count, every observation of its lifetime.
func TestMarkovHistoryBounded(t *testing.T) {
	src := rng.New(5)
	m := NewMarkov(DefaultStates)
	for i := 0; i < 5000; i++ {
		m.Observe(float64(src.Intn(50)))
		if len(m.obs) > markovWindow {
			t.Fatalf("history holds %d observations after %d, window is %d", len(m.obs), i+1, markovWindow)
		}
	}
	if len(m.obs) < markovWindow/2 {
		t.Fatalf("history holds %d observations, want at least the newest %d", len(m.obs), markovWindow/2)
	}
	if m.min != 0 || m.max != 49 {
		t.Fatalf("running range [%v, %v], want [0, 49]", m.min, m.max)
	}
	if got := m.Predict(); got < 0 || got > 49 {
		t.Fatalf("Predict() = %v outside the observed range", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Predict(); _ = m.PredictExpected() }); allocs != 0 {
		t.Fatalf("Predict + PredictExpected allocate %v times, want 0", allocs)
	}
}
