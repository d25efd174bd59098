package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func seriesOf(vs ...float64) *Series {
	var s Series
	for _, v := range vs {
		s.Add(v)
	}
	return &s
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Stddev() != 0 {
		t.Fatal("empty series should report zeros")
	}
	if s.Percentile(99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if s.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestSeriesBasics(t *testing.T) {
	s := seriesOf(3, 1, 2)
	if s.Min() != 1 || s.Max() != 3 || !almost(s.Mean(), 2) {
		t.Fatalf("min/mean/max = %v/%v/%v", s.Min(), s.Mean(), s.Max())
	}
	if !almost(s.Sum(), 6) {
		t.Fatalf("Sum = %v", s.Sum())
	}
	if s.At(0) != 3 || s.At(2) != 2 {
		t.Fatal("arrival order not preserved")
	}
}

func TestSeriesAddAfterQuery(t *testing.T) {
	s := seriesOf(1, 2, 3)
	_ = s.Max() // force sorted cache
	s.Add(10)
	if s.Max() != 10 {
		t.Fatal("sorted cache not invalidated by Add")
	}
}

func TestAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Millisecond)
	if !almost(s.At(0), 1500) {
		t.Fatalf("AddDuration = %v ms, want 1500", s.At(0))
	}
}

func TestPercentile(t *testing.T) {
	s := seriesOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := s.Percentile(0); !almost(got, 1) {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); !almost(got, 10) {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Median(); !almost(got, 5.5) {
		t.Fatalf("median = %v", got)
	}
	if got := s.Percentile(90); !almost(got, 9.1) {
		t.Fatalf("p90 = %v, want 9.1", got)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	s := seriesOf(42)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("p%v = %v, want 42", p, got)
		}
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(101) did not panic")
		}
	}()
	seriesOf(1).Percentile(101)
}

func TestStddev(t *testing.T) {
	s := seriesOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Stddev(); !almost(got, 2) {
		t.Fatalf("stddev = %v, want 2", got)
	}
	if seriesOf(5).Stddev() != 0 {
		t.Fatal("single-sample stddev should be 0")
	}
}

func TestCDF(t *testing.T) {
	s := seriesOf(1, 1, 2, 3)
	pts := s.CDF()
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v, want %v", pts, want)
	}
	for i := range want {
		if !almost(pts[i].Value, want[i].Value) || !almost(pts[i].Fraction, want[i].Fraction) {
			t.Fatalf("CDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	s := seriesOf(1, 2, 3, 4, 5)
	sum := s.Summarize()
	if sum.Count != 5 || !almost(sum.Min, 1) || !almost(sum.Max, 5) || !almost(sum.Mean, 3) {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("summary String empty")
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(0, 1)
	ts.Add(time.Second, 5)
	ts.Add(time.Second, 3) // equal timestamps allowed
	if ts.Len() != 3 {
		t.Fatalf("len = %d", ts.Len())
	}
	if ts.MaxValue() != 5 {
		t.Fatalf("max = %v", ts.MaxValue())
	}
	if !almost(ts.MeanValue(), 3) {
		t.Fatalf("mean = %v", ts.MeanValue())
	}
	if got := ts.Values(); len(got) != 3 || got[1] != 5 {
		t.Fatalf("values = %v", got)
	}
	if p := ts.At(1); p.T != time.Second || p.V != 5 {
		t.Fatalf("At(1) = %+v", p)
	}
}

func TestTimeSeriesBackwardsPanics(t *testing.T) {
	var ts TimeSeries
	ts.Add(time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards timestamp did not panic")
		}
	}()
	ts.Add(0, 2)
}

func TestTimeSeriesEmpty(t *testing.T) {
	var ts TimeSeries
	if ts.MaxValue() != 0 || ts.MeanValue() != 0 {
		t.Fatal("empty time series should report zeros")
	}
}

func TestMeanAbsError(t *testing.T) {
	if got := MeanAbsError([]float64{1, 2, 3}, []float64{2, 2, 1}); !almost(got, 1) {
		t.Fatalf("MAE = %v, want 1", got)
	}
	if MeanAbsError(nil, nil) != 0 {
		t.Fatal("empty MAE != 0")
	}
}

func TestMeanRelError(t *testing.T) {
	if got := MeanRelError([]float64{110}, []float64{100}); !almost(got, 0.1) {
		t.Fatalf("MRE = %v, want 0.1", got)
	}
	// Zero truth values must not divide by zero.
	got := MeanRelError([]float64{1}, []float64{0})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("MRE with zero truth = %v", got)
	}
}

func TestMeanErrorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MeanAbsError([]float64{1}, []float64{1, 2})
}

func TestAutoCorrelation(t *testing.T) {
	// A strictly alternating series has lag-1 autocorrelation near -1
	// and lag-2 near +1.
	var alt []float64
	for i := 0; i < 100; i++ {
		alt = append(alt, float64(i%2))
	}
	if ac := AutoCorrelation(alt, 1); ac > -0.9 {
		t.Fatalf("alternating lag-1 AC = %v, want ~-1", ac)
	}
	if ac := AutoCorrelation(alt, 2); ac < 0.9 {
		t.Fatalf("alternating lag-2 AC = %v, want ~+1", ac)
	}
	// A constant series has zero variance: defined as 0.
	if ac := AutoCorrelation([]float64{5, 5, 5, 5, 5}, 1); ac != 0 {
		t.Fatalf("constant AC = %v", ac)
	}
	// Degenerate inputs.
	if AutoCorrelation(nil, 1) != 0 || AutoCorrelation([]float64{1, 2}, 5) != 0 ||
		AutoCorrelation([]float64{1, 2, 3}, 0) != 0 {
		t.Fatal("degenerate autocorrelation should be 0")
	}
}

// Property: percentiles are monotone in p and bounded by [min, max].
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.Len() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			if v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF fractions are strictly increasing, end at 1, and values
// are strictly increasing.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Series
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		pts := s.CDF()
		if s.Len() == 0 {
			return pts == nil
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
				return false
			}
		}
		return almost(pts[len(pts)-1].Fraction, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sorted cache always agrees with a fresh sort.
func TestPropertySortedCache(t *testing.T) {
	f := func(raw []float64, queries []uint8) bool {
		var s Series
		ref := []float64{}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
			ref = append(ref, v)
			if i%3 == 0 && s.Len() > 0 {
				_ = s.Median() // interleave queries to exercise cache invalidation
			}
		}
		if len(ref) == 0 {
			return true
		}
		sort.Float64s(ref)
		return almost(s.Min(), ref[0]) && almost(s.Max(), ref[len(ref)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(NaN) did not panic")
		}
	}()
	seriesOf(1, 2, 3).Percentile(math.NaN())
}

// Regression: Values hands out the live sample slice and callers sort
// it in place; the sorted cache must not survive that.
func TestValuesInvalidatesSortedCache(t *testing.T) {
	s := seriesOf(5, 1, 9, 3)
	if got := s.Median(); !almost(got, 4) { // populate the cache
		t.Fatalf("median = %v, want 4", got)
	}
	vs := s.Values()
	for i := range vs {
		vs[i] *= 10 // mutate through the alias
	}
	if got := s.Max(); !almost(got, 90) {
		t.Fatalf("Max after external mutation = %v, want 90", got)
	}
	if got := s.Median(); !almost(got, 40) {
		t.Fatalf("Median after external mutation = %v, want 40", got)
	}
}

func TestPercentileDuplicatesAtBoundary(t *testing.T) {
	// All mass at one value: every quantile must return it.
	s := seriesOf(7, 7, 7, 7)
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Fatalf("p%v = %v, want 7", p, got)
		}
	}
	// A run of duplicates straddling the median rank.
	s = seriesOf(1, 2, 2, 2, 3)
	if got := s.Median(); !almost(got, 2) {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := s.Percentile(100); !almost(got, 3) {
		t.Fatalf("p100 = %v, want 3", got)
	}
}

func TestCDFSingleAndDuplicates(t *testing.T) {
	if pts := seriesOf(4).CDF(); len(pts) != 1 || pts[0].Value != 4 || !almost(pts[0].Fraction, 1) {
		t.Fatalf("single-sample CDF = %v", pts)
	}
	// Equal values collapse to one point carrying the full fraction.
	pts := seriesOf(2, 2, 2).CDF()
	if len(pts) != 1 || pts[0].Value != 2 || !almost(pts[0].Fraction, 1) {
		t.Fatalf("all-duplicates CDF = %v", pts)
	}
}
