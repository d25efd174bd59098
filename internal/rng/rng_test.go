package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7).Split("arrivals")
	b := New(7).Split("arrivals")
	for i := 0; i < 50; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same split name diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("arrivals")
	b := root.Split("corpus")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1<<20) == b.Intn(1<<20) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look correlated: %d/64 equal draws", same)
	}
}

func TestRepeatedSplitSameNameDiffers(t *testing.T) {
	root := New(7)
	a := root.Split("x")
	b := root.Split("x")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1<<20) == b.Intn(1<<20) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("repeated splits with one name are not distinct: %d/64 equal", same)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(3)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~3", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(17)
	for _, mean := range []float64{0.5, 4, 32, 100, 500} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 || s.Poisson(-5) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestZipfConcentration(t *testing.T) {
	s := New(29)
	z := s.Zipf(1.5, 100)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if frac := float64(top10) / n; frac < 0.5 {
		t.Fatalf("Zipf(1.5) top-10 share = %v, want > 0.5", frac)
	}
}

func TestZipfLowSkewClamped(t *testing.T) {
	s := New(31)
	z := s.Zipf(0.5, 10) // skew <= 1 must be clamped, not panic
	for i := 0; i < 100; i++ {
		if v := z.Next(); v >= 10 {
			t.Fatalf("Zipf rank out of range: %d", v)
		}
	}
}

// Property: Exp never produces a negative value.
func TestPropertyRanges(t *testing.T) {
	f := func(seed int64, mean uint8) bool {
		s := New(seed)
		m := float64(mean%50) + 0.1
		for i := 0; i < 100; i++ {
			if s.Exp(m) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
