// Package trace generates the request patterns the paper evaluates
// HotC under (§V.D): serial and parallel flows, linear and exponential
// increase/decrease, request bursts, and a synthetic reconstruction of
// the UMass campus YouTube trace of Fig. 11 with its three
// representative phenomena — the morning burst at T710 (20 -> 300
// requests), the afternoon decline from T800 to T1200, and the evening
// rise from T1200 to T1400.
package trace

import (
	"fmt"
	"math"
	"slices"
	"time"

	"hotc/internal/rng"
)

// Request is one client request arrival.
type Request struct {
	// At is the arrival time relative to the start of the experiment.
	At time.Duration
	// Class selects which runtime configuration / function the request
	// targets; patterns with a single configuration use class 0.
	Class int
	// Round is the generation round the request belongs to (used by
	// the figure renderers to group latencies per round).
	Round int
}

// Pattern produces a deterministic request schedule.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Generate returns the schedule ordered by arrival time.
	Generate() []Request
}

// Serial emits one request per interval from a single client thread —
// the Fig. 12(a) workload ("a single thread application sending the
// same request to the backends every 30 seconds").
type Serial struct {
	// Interval between consecutive requests.
	Interval time.Duration
	// Count is the number of requests.
	Count int
	// Class is the runtime class of every request.
	Class int
}

// Name implements Pattern.
func (s Serial) Name() string { return fmt.Sprintf("serial(every %v)", s.Interval) }

// Generate implements Pattern.
func (s Serial) Generate() []Request {
	reqs := make([]Request, 0, s.Count)
	for i := 0; i < s.Count; i++ {
		reqs = append(reqs, Request{At: time.Duration(i) * s.Interval, Class: s.Class, Round: i})
	}
	return reqs
}

// Parallel emits requests from several client threads, each with its
// own runtime configuration — the Fig. 12(b) workload ("Ten threads at
// the client keep sending requests to the backend and each thread has
// its own runtime configuration").
type Parallel struct {
	// Threads is the number of concurrent client threads; thread i
	// sends class-i requests.
	Threads int
	// Interval between a thread's consecutive requests.
	Interval time.Duration
	// Rounds is the number of requests each thread sends.
	Rounds int
}

// Name implements Pattern.
func (p Parallel) Name() string { return fmt.Sprintf("parallel(%d threads)", p.Threads) }

// Generate implements Pattern.
func (p Parallel) Generate() []Request {
	reqs := make([]Request, 0, p.Threads*p.Rounds)
	for r := 0; r < p.Rounds; r++ {
		at := time.Duration(r) * p.Interval
		for th := 0; th < p.Threads; th++ {
			reqs = append(reqs, Request{At: at, Class: th, Round: r})
		}
	}
	return reqs
}

// Linear emits rounds of simultaneous requests whose count changes by
// Step each round — the Fig. 13 workloads ("the clients sent two
// requests to the backend at the beginning, and every 30 seconds, the
// requests increased by two"; the decreasing case mirrors it).
type Linear struct {
	// Start is the request count of round 0.
	Start int
	// Step is added each round (negative for the decreasing case).
	Step int
	// Rounds is the number of rounds.
	Rounds int
	// Interval between rounds.
	Interval time.Duration
}

// Name implements Pattern.
func (l Linear) Name() string {
	if l.Step >= 0 {
		return fmt.Sprintf("linear-increasing(+%d/round)", l.Step)
	}
	return fmt.Sprintf("linear-decreasing(%d/round)", l.Step)
}

// Generate implements Pattern.
func (l Linear) Generate() []Request {
	var reqs []Request
	for r := 0; r < l.Rounds; r++ {
		n := l.Start + r*l.Step
		if n <= 0 {
			continue
		}
		at := time.Duration(r) * l.Interval
		for i := 0; i < n; i++ {
			reqs = append(reqs, Request{At: at, Class: 0, Round: r})
		}
	}
	return reqs
}

// Exponential emits 2^i (or 2^(Rounds-1-i) when decreasing) requests
// at round i — the Fig. 14(a) workload ("we changed the number of
// requests to 2^i at round i").
type Exponential struct {
	// Rounds is the number of rounds; the largest round has
	// 2^(Rounds-1) requests.
	Rounds int
	// Interval between rounds.
	Interval time.Duration
	// Decreasing reverses the round sizes.
	Decreasing bool
}

// Name implements Pattern.
func (e Exponential) Name() string {
	if e.Decreasing {
		return "exponential-decreasing"
	}
	return "exponential-increasing"
}

// Generate implements Pattern.
func (e Exponential) Generate() []Request {
	var reqs []Request
	for r := 0; r < e.Rounds; r++ {
		exp := r
		if e.Decreasing {
			exp = e.Rounds - 1 - r
		}
		n := 1 << uint(exp)
		at := time.Duration(r) * e.Interval
		for i := 0; i < n; i++ {
			reqs = append(reqs, Request{At: at, Class: 0, Round: r})
		}
	}
	return reqs
}

// Burst emits a steady Base requests per round, multiplied by Factor
// during the designated burst rounds — the Fig. 14(b) workload ("The
// client keeps sending eight requests each time and increases the
// throughput by 10x at the 4th, 8th, 12th, 16th round").
type Burst struct {
	// Base requests per normal round.
	Base int
	// Factor multiplies Base during burst rounds.
	Factor int
	// BurstRounds lists the 0-indexed rounds that burst.
	BurstRounds []int
	// Rounds is the total number of rounds.
	Rounds int
	// Interval between rounds.
	Interval time.Duration
}

// Name implements Pattern.
func (b Burst) Name() string { return fmt.Sprintf("burst(x%d)", b.Factor) }

// Generate implements Pattern.
func (b Burst) Generate() []Request {
	bursts := make(map[int]bool, len(b.BurstRounds))
	for _, r := range b.BurstRounds {
		bursts[r] = true
	}
	var reqs []Request
	for r := 0; r < b.Rounds; r++ {
		n := b.Base
		if bursts[r] {
			n *= b.Factor
		}
		at := time.Duration(r) * b.Interval
		for i := 0; i < n; i++ {
			reqs = append(reqs, Request{At: at, Class: 0, Round: r})
		}
	}
	return reqs
}

// CampusEnvelope returns the expected request rate (requests per
// minute) of the synthetic campus YouTube trace at the given minute of
// the day [0, 1440). The shape encodes the paper's three Fig. 11
// observations: the T710 burst from 20 to 300, the T800–T1200 decline,
// and the T1200–T1400 evening rise.
func CampusEnvelope(minute int) float64 {
	m := float64(minute % 1440)
	switch {
	case m < 400: // after midnight: tail traffic decaying
		return lerp(60, 15, m/400)
	case m < 700: // early morning: quiet
		return lerp(15, 20, (m-400)/300)
	case m < 710: // the burst front: 20 -> 300 in ten minutes
		return lerp(20, 300, (m-700)/10)
	case m < 800: // burst plateau settling
		return lerp(300, 280, (m-710)/90)
	case m < 1200: // afternoon decline
		return lerp(280, 80, (m-800)/400)
	case m < 1400: // evening rise
		return lerp(80, 240, (m-1200)/200)
	default: // towards midnight
		return lerp(240, 180, (m-1400)/40)
	}
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Campus synthesises a day of Fig. 11 traffic: per-minute request
// counts drawn from a Poisson distribution around the envelope,
// optionally scaled down for tractable simulation.
type Campus struct {
	// Seed drives the Poisson noise.
	Seed int64
	// Scale divides the envelope (Scale 10 means one simulated request
	// per ten trace requests). Zero means no scaling.
	Scale float64
	// Minutes is the trace length; zero means a full day (1440).
	Minutes int
	// Classes spreads requests round-robin over this many runtime
	// classes; zero means a single class.
	Classes int
}

// Name implements Pattern.
func (c Campus) Name() string { return "campus-youtube-diurnal" }

// Generate implements Pattern. Float64 < 1 puts every arrival of
// minute m in [m, m+1) minutes, so ordering each minute's arrivals
// orders the day: no sort over the whole schedule.
func (c Campus) Generate() []Request {
	src := rng.New(c.Seed)
	minutes := c.Minutes
	if minutes <= 0 {
		minutes = 1440
	}
	scale := c.Scale
	if scale <= 0 {
		scale = 1
	}
	classes := c.Classes
	if classes <= 0 {
		classes = 1
	}
	// Size the schedule and the per-minute scratch once: the expected
	// count plus four standard deviations (a Poisson count's variance is
	// its mean). A rarer draw still fits, by append.
	total, peak := 0.0, 0.0
	for m := 0; m < minutes; m++ {
		mean := CampusEnvelope(m) / scale
		total += mean
		peak = max(peak, mean)
	}
	reqs := make([]Request, 0, int(total+4*math.Sqrt(total))+1)
	offs := make([]time.Duration, 0, int(peak+4*math.Sqrt(peak))+1)
	starts := make([]int, 0, cap(offs)+1)
	seq := 0
	for m := 0; m < minutes; m++ {
		n := src.Poisson(CampusEnvelope(m) / scale)
		// Spread the minute's arrivals uniformly across it.
		offs = offs[:0]
		for i := 0; i < n; i++ {
			offs = append(offs, time.Duration(src.Float64()*float64(time.Minute)))
		}
		starts = slices.Grow(starts[:0], n+1)[:n+1]
		reqs = appendInOrder(reqs, offs, starts, m, seq, classes)
		seq += n
	}
	return reqs
}

// appendInOrder appends minute m's arrivals, given by their offsets in
// generation order, to reqs in arrival order, ties in generation order.
// One counting pass places them in n equal-width buckets of the minute
// (starts, n+1 long, is its scratch); an insertion sort then moves an
// arrival only within its bucket, since a lower bucket holds only
// earlier offsets: stable, and linear in expectation.
func appendInOrder(reqs []Request, offs []time.Duration, starts []int, m, seq, classes int) []Request {
	n := len(offs)
	perNs := float64(n) / float64(time.Minute)
	bucket := func(off time.Duration) int { return min(int(float64(off)*perNs), n-1) }
	clear(starts)
	for _, off := range offs {
		starts[bucket(off)+1]++
	}
	for b := 1; b < n; b++ {
		starts[b] += starts[b-1]
	}
	base := len(reqs)
	reqs = slices.Grow(reqs, n)[:base+n]
	minute := reqs[base:]
	for i, off := range offs {
		b := bucket(off)
		minute[starts[b]] = Request{
			At:    time.Duration(m)*time.Minute + off,
			Class: (seq + i) % classes,
			Round: m,
		}
		starts[b]++
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && minute[j].At < minute[j-1].At; j-- {
			minute[j], minute[j-1] = minute[j-1], minute[j]
		}
	}
	return reqs
}

// Poisson emits requests with exponential inter-arrival times at the
// given rate — the open-loop baseline workload.
type Poisson struct {
	// Seed drives arrivals.
	Seed int64
	// RatePerSec is the mean arrival rate.
	RatePerSec float64
	// Length is the schedule duration.
	Length time.Duration
	// Classes spreads requests over this many classes by round-robin;
	// zero means one class.
	Classes int
}

// Name implements Pattern.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(%.1f/s)", p.RatePerSec) }

// Generate implements Pattern.
func (p Poisson) Generate() []Request {
	if p.RatePerSec <= 0 || p.Length <= 0 {
		return nil
	}
	src := rng.New(p.Seed)
	classes := p.Classes
	if classes <= 0 {
		classes = 1
	}
	var reqs []Request
	t := time.Duration(0)
	i := 0
	for {
		gap := time.Duration(src.Exp(1/p.RatePerSec) * float64(time.Second))
		t += gap
		if t >= p.Length {
			break
		}
		reqs = append(reqs, Request{At: t, Class: i % classes, Round: int(t / time.Second)})
		i++
	}
	return reqs
}

// ScheduleStats summarises a request schedule.
type ScheduleStats struct {
	// Requests is the schedule length.
	Requests int
	// Span is the time from first to last arrival.
	Span time.Duration
	// MeanRatePerSec is Requests over Span (0 for degenerate spans).
	MeanRatePerSec float64
	// Classes counts distinct request classes.
	Classes int
	// PeakPerRound is the largest per-round request count.
	PeakPerRound int
	// MeanIAT is the mean inter-arrival time.
	MeanIAT time.Duration
}

// Stats computes summary statistics of a schedule (assumed
// time-sorted, as all generators produce).
func Stats(reqs []Request) ScheduleStats {
	st := ScheduleStats{Requests: len(reqs)}
	if len(reqs) == 0 {
		return st
	}
	classes := map[int]bool{}
	for _, r := range reqs {
		classes[r.Class] = true
	}
	st.Classes = len(classes)
	st.Span = reqs[len(reqs)-1].At - reqs[0].At
	if st.Span > 0 {
		st.MeanRatePerSec = float64(len(reqs)) / st.Span.Seconds()
	}
	if len(reqs) > 1 {
		st.MeanIAT = st.Span / time.Duration(len(reqs)-1)
	}
	for _, c := range CountPerRound(reqs) {
		if int(c) > st.PeakPerRound {
			st.PeakPerRound = int(c)
		}
	}
	return st
}

// CountPerRound aggregates a schedule into per-round request counts,
// the demand series the predictor experiments consume.
func CountPerRound(reqs []Request) []float64 {
	maxRound := -1
	for _, r := range reqs {
		if r.Round > maxRound {
			maxRound = r.Round
		}
	}
	counts := make([]float64, maxRound+1)
	for _, r := range reqs {
		counts[r.Round]++
	}
	return counts
}
