package trace

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func assertSortedByTime(t *testing.T, reqs []Request) {
	t.Helper()
	for i := 1; i < len(reqs); i++ {
		if reqs[i].At < reqs[i-1].At {
			t.Fatalf("requests out of order at %d: %v after %v", i, reqs[i].At, reqs[i-1].At)
		}
	}
}

func TestSerial(t *testing.T) {
	p := Serial{Interval: 30 * time.Second, Count: 5, Class: 3}
	reqs := p.Generate()
	if len(reqs) != 5 {
		t.Fatalf("len = %d", len(reqs))
	}
	for i, r := range reqs {
		if r.At != time.Duration(i)*30*time.Second {
			t.Fatalf("req %d at %v", i, r.At)
		}
		if r.Class != 3 || r.Round != i {
			t.Fatalf("req %d class/round = %d/%d", i, r.Class, r.Round)
		}
	}
	assertSortedByTime(t, reqs)
}

func TestParallelPerThreadClasses(t *testing.T) {
	p := Parallel{Threads: 10, Interval: time.Second, Rounds: 3}
	reqs := p.Generate()
	if len(reqs) != 30 {
		t.Fatalf("len = %d", len(reqs))
	}
	classes := map[int]int{}
	for _, r := range reqs {
		classes[r.Class]++
	}
	if len(classes) != 10 {
		t.Fatalf("distinct classes = %d, want 10", len(classes))
	}
	for c, n := range classes {
		if n != 3 {
			t.Fatalf("class %d has %d requests, want 3", c, n)
		}
	}
	assertSortedByTime(t, reqs)
}

func TestLinearIncreasing(t *testing.T) {
	p := Linear{Start: 2, Step: 2, Rounds: 4, Interval: 30 * time.Second}
	counts := CountPerRound(p.Generate())
	want := []float64{2, 4, 6, 8}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("round %d = %v, want %v", i, counts[i], want[i])
		}
	}
}

func TestLinearDecreasingStopsAtZero(t *testing.T) {
	p := Linear{Start: 6, Step: -2, Rounds: 6, Interval: time.Second}
	reqs := p.Generate()
	counts := CountPerRound(reqs)
	want := []float64{6, 4, 2} // rounds 3+ have zero requests and vanish
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("round %d = %v, want %v", i, counts[i], want[i])
		}
	}
	for _, r := range reqs {
		if r.Round > 2 {
			t.Fatalf("round %d should have no requests", r.Round)
		}
	}
}

func TestExponentialIncreasing(t *testing.T) {
	p := Exponential{Rounds: 5, Interval: time.Second}
	counts := CountPerRound(p.Generate())
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("round %d = %v, want %v", i, counts[i], want[i])
		}
	}
}

func TestExponentialDecreasing(t *testing.T) {
	p := Exponential{Rounds: 4, Interval: time.Second, Decreasing: true}
	counts := CountPerRound(p.Generate())
	want := []float64{8, 4, 2, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("round %d = %v, want %v", i, counts[i], want[i])
		}
	}
}

// Fig. 14(b): eight requests per round, 10x at rounds 4, 8, 12, 16.
func TestBurstPattern(t *testing.T) {
	p := Burst{Base: 8, Factor: 10, BurstRounds: []int{4, 8, 12, 16}, Rounds: 18, Interval: time.Second}
	counts := CountPerRound(p.Generate())
	for r, c := range counts {
		want := 8.0
		if r == 4 || r == 8 || r == 12 || r == 16 {
			want = 80
		}
		if c != want {
			t.Fatalf("round %d = %v, want %v", r, c, want)
		}
	}
}

// Fig. 11: the envelope must show the three phenomena the paper calls
// out.
func TestCampusEnvelopeShape(t *testing.T) {
	// Burst at T710: from ~20 at T700 to ~300 at T710.
	if v := CampusEnvelope(700); v < 15 || v > 30 {
		t.Fatalf("envelope(700) = %v, want ~20", v)
	}
	if v := CampusEnvelope(710); v < 280 {
		t.Fatalf("envelope(710) = %v, want ~300", v)
	}
	// Afternoon decline T800 -> T1200.
	if !(CampusEnvelope(800) > CampusEnvelope(1000) && CampusEnvelope(1000) > CampusEnvelope(1199)) {
		t.Fatal("envelope should decline from T800 to T1200")
	}
	// Evening rise T1200 -> T1400.
	if !(CampusEnvelope(1200) < CampusEnvelope(1300) && CampusEnvelope(1300) < CampusEnvelope(1400)) {
		t.Fatal("envelope should rise from T1200 to T1400")
	}
	// Periodic wrap.
	if CampusEnvelope(0) != CampusEnvelope(1440) {
		t.Fatal("envelope should wrap at midnight")
	}
}

func TestCampusGenerate(t *testing.T) {
	c := Campus{Seed: 1, Scale: 10, Minutes: 120, Classes: 3}
	reqs := c.Generate()
	if len(reqs) == 0 {
		t.Fatal("empty campus trace")
	}
	assertSortedByTime(t, reqs)
	for _, r := range reqs {
		if r.At >= 120*time.Minute {
			t.Fatalf("request beyond trace length: %v", r.At)
		}
		if r.Class < 0 || r.Class >= 3 {
			t.Fatalf("class out of range: %d", r.Class)
		}
	}
	// Deterministic for a seed.
	again := Campus{Seed: 1, Scale: 10, Minutes: 120, Classes: 3}.Generate()
	if len(again) != len(reqs) {
		t.Fatal("campus trace not deterministic")
	}
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatalf("campus trace differs at %d", i)
		}
	}
}

func TestCampusBurstVisibleInCounts(t *testing.T) {
	c := Campus{Seed: 7, Scale: 1, Minutes: 720}
	counts := CountPerRound(c.Generate())
	if len(counts) < 711 {
		t.Fatalf("trace too short: %d minutes", len(counts))
	}
	// The burst minute should carry roughly 10x the pre-burst rate.
	pre := counts[695]
	burst := counts[710]
	if burst < 4*pre {
		t.Fatalf("burst not visible: pre=%v burst=%v", pre, burst)
	}
}

func TestPoisson(t *testing.T) {
	p := Poisson{Seed: 3, RatePerSec: 5, Length: 100 * time.Second, Classes: 2}
	reqs := p.Generate()
	assertSortedByTime(t, reqs)
	// ~500 expected; allow generous slack.
	if len(reqs) < 350 || len(reqs) > 650 {
		t.Fatalf("poisson count = %d, want ~500", len(reqs))
	}
	for _, r := range reqs {
		if r.At >= 100*time.Second {
			t.Fatalf("arrival beyond length: %v", r.At)
		}
	}
}

func TestPoissonDegenerate(t *testing.T) {
	if reqs := (Poisson{RatePerSec: 0, Length: time.Minute}).Generate(); reqs != nil {
		t.Fatal("zero-rate poisson should be empty")
	}
	if reqs := (Poisson{RatePerSec: 5, Length: 0}).Generate(); reqs != nil {
		t.Fatal("zero-length poisson should be empty")
	}
}

func TestScheduleStats(t *testing.T) {
	reqs := Parallel{Threads: 3, Interval: 10 * time.Second, Rounds: 4}.Generate()
	st := Stats(reqs)
	if st.Requests != 12 || st.Classes != 3 || st.PeakPerRound != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Span != 30*time.Second {
		t.Fatalf("span = %v", st.Span)
	}
	if st.MeanRatePerSec != 12.0/30 {
		t.Fatalf("rate = %v", st.MeanRatePerSec)
	}
	if st.MeanIAT != 30*time.Second/11 {
		t.Fatalf("mean IAT = %v", st.MeanIAT)
	}
}

func TestScheduleStatsDegenerate(t *testing.T) {
	if st := Stats(nil); st.Requests != 0 || st.MeanRatePerSec != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	one := Stats([]Request{{At: time.Second}})
	if one.Requests != 1 || one.Span != 0 || one.MeanIAT != 0 {
		t.Fatalf("single stats = %+v", one)
	}
	// Simultaneous arrivals: zero span, rate left at 0.
	same := Stats([]Request{{At: 0}, {At: 0}})
	if same.MeanRatePerSec != 0 {
		t.Fatalf("zero-span rate = %v", same.MeanRatePerSec)
	}
}

func TestCountPerRoundEmpty(t *testing.T) {
	if got := CountPerRound(nil); len(got) != 0 {
		t.Fatalf("CountPerRound(nil) = %v", got)
	}
}

func TestNames(t *testing.T) {
	pats := []Pattern{
		Serial{Interval: time.Second},
		Parallel{Threads: 2},
		Linear{Step: 2},
		Linear{Step: -2},
		Exponential{},
		Exponential{Decreasing: true},
		Burst{Factor: 10},
		Campus{},
		Poisson{RatePerSec: 1},
	}
	seen := map[string]bool{}
	for _, p := range pats {
		n := p.Name()
		if n == "" {
			t.Fatal("empty pattern name")
		}
		if seen[n] {
			t.Fatalf("duplicate pattern name %q", n)
		}
		seen[n] = true
	}
}

// Property: every generated schedule is time-sorted with non-negative
// arrival times and rounds.
func TestPropertySchedulesSane(t *testing.T) {
	f := func(kind uint8, a, b uint8) bool {
		var p Pattern
		switch kind % 6 {
		case 0:
			p = Serial{Interval: time.Duration(a%30+1) * time.Second, Count: int(b % 50)}
		case 1:
			p = Parallel{Threads: int(a%10) + 1, Interval: time.Second, Rounds: int(b % 20)}
		case 2:
			p = Linear{Start: int(a % 10), Step: int(b%7) - 3, Rounds: 10, Interval: time.Second}
		case 3:
			p = Exponential{Rounds: int(a%8) + 1, Interval: time.Second, Decreasing: b%2 == 0}
		case 4:
			p = Burst{Base: int(a%10) + 1, Factor: int(b%10) + 1, BurstRounds: []int{2}, Rounds: 6, Interval: time.Second}
		default:
			p = Poisson{Seed: int64(a), RatePerSec: float64(b%20) + 0.5, Length: 10 * time.Second}
		}
		reqs := p.Generate()
		for i, r := range reqs {
			if r.At < 0 || r.Round < 0 || r.Class < 0 {
				return false
			}
			if i > 0 && r.At < reqs[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// campusDigest is an FNV-64a digest of a schedule's (At, Class, Round)
// triples, in order.
func campusDigest(reqs []Request) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.At))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Class))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.Round))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestCampusGolden pins the campus schedules byte for byte: full days at
// seeds 1 (the benchmark harness's day), 7 and 11 (Fig. 11's), and a
// high-rate hour with over a thousand arrivals a minute. The digests were
// taken from the insertion-sorted generator; never regenerate them to
// make a change pass.
func TestCampusGolden(t *testing.T) {
	cases := []struct {
		c      Campus
		n      int
		digest uint64
	}{
		{Campus{Seed: 1, Scale: 1, Classes: 4}, 160372, 0x7e5b4ff16885c703},
		{Campus{Seed: 7, Scale: 1, Classes: 4}, 160703, 0x92eb2bdd0a14022c},
		{Campus{Seed: 11, Scale: 1}, 160159, 0x5387dbf9f670c9a3},
		{Campus{Seed: 1, Scale: 0.05, Minutes: 60, Classes: 3}, 68403, 0xd04204222c3877d4},
	}
	for _, tc := range cases {
		reqs := tc.c.Generate()
		if got := campusDigest(reqs); len(reqs) != tc.n || got != tc.digest {
			t.Errorf("%+v: %d requests, digest %#x; want %d, %#x", tc.c, len(reqs), got, tc.n, tc.digest)
		}
	}
}

// campusAllocBudget bounds what generating the harness's campus day
// allocates: the schedule, sized once (24 B a request), the per-minute
// scratch and the random source. A growing append made 34 allocations
// and ~139 B a request.
const (
	campusAllocBudget      = 16
	campusBytesPerReqLimit = 32
)

func TestCampusGenerateAllocBudget(t *testing.T) {
	c := Campus{Seed: 1, Scale: 1, Classes: 4}
	var n int
	allocs := testing.AllocsPerRun(3, func() { n = len(c.Generate()) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Generate()
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.0f allocations, %.1f B a request over %d requests", allocs, perReq, n)
	if allocs > campusAllocBudget || perReq > campusBytesPerReqLimit {
		t.Fatalf("a campus day makes %.0f allocations and %.1f B a request, budget %d and %d B",
			allocs, perReq, campusAllocBudget, campusBytesPerReqLimit)
	}
}
