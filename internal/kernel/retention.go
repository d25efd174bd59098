package kernel

import (
	"slices"
	"time"
)

// Retention is a keep-alive rule, one of the paper's baselines
// (§III.B): how long a key's idle runtime may stay before it is
// stopped. A substrate tells it every arrival and asks Window when a
// runtime goes idle and when its idle check falls due; Expired is the
// test both substrates apply to the answer. Keys are the runtime key's
// text.
type Retention interface {
	// Arrive records a request for key at now, on the caller's clock.
	Arrive(key string, now time.Duration)
	// Window is how long an idle runtime of key may stay; ≤ 0 is
	// forever.
	Window(key string) time.Duration
}

// Expired is the one keep-alive test: whether a runtime idle for
// idleFor has outlived window. A window ≤ 0 never expires.
func Expired(idleFor, window time.Duration) bool { return window > 0 && idleFor >= window }

// Fixed is the fixed keep-alive, AWS Lambda's "retains the resources in
// memory for minutes after function execution": every key's idle
// runtime stays for the same window, forever when it is ≤ 0.
type Fixed time.Duration

// Arrive implements Retention: a fixed window ignores arrivals.
func (Fixed) Arrive(string, time.Duration) {}

// Window implements Retention.
func (f Fixed) Window(string) time.Duration { return time.Duration(f) }

// The histogram rule's constants.
const (
	histogramMin    = 10 * time.Second
	histogramMax    = time.Hour
	histogramMargin = 1.2
	// A key's history is cut to its latest histogramKeep inter-arrival
	// times once it passes histogramCap.
	histogramCap  = 4096
	histogramKeep = 2048
)

// Histogram is the Serverless-in-the-Wild keep-alive, "different
// keep-alive values for workloads according to their actual invocation
// frequency and patterns": a key's window is the 99th percentile of its
// inter-arrival times × 1.2, clamped to [10 s, 1 h], and the 1 h
// maximum while it has fewer than two. Frequent keys stay warm; rare
// ones give their runtime back quickly.
type Histogram struct{ keys map[string]*arrivals }

// arrivals is one key's history: its last arrival and its inter-arrival
// times, in arrival order and sorted. The sorted copy is kept by
// insertion, so Window reads the percentile without sorting.
type arrivals struct {
	last         time.Duration
	iats, sorted []time.Duration
}

// NewHistogram returns a histogram rule with no history.
func NewHistogram() *Histogram { return &Histogram{keys: map[string]*arrivals{}} }

// Arrive implements Retention.
func (h *Histogram) Arrive(key string, now time.Duration) {
	a := h.keys[key]
	if a == nil {
		h.keys[key] = &arrivals{last: now}
		return
	}
	iat := now - a.last
	a.last = now
	if a.iats = append(a.iats, iat); len(a.iats) > histogramCap {
		a.iats = a.iats[len(a.iats)-histogramKeep:]
		a.sorted = append(a.sorted[:0], a.iats...)
		slices.Sort(a.sorted)
		return
	}
	i, _ := slices.BinarySearch(a.sorted, iat)
	a.sorted = slices.Insert(a.sorted, i, iat)
}

// Window implements Retention.
func (h *Histogram) Window(key string) time.Duration {
	a := h.keys[key]
	if a == nil || len(a.sorted) < 2 {
		return histogramMax // not enough signal: be conservative
	}
	p99 := a.sorted[int(float64(len(a.sorted)-1)*0.99)]
	return min(max(time.Duration(float64(p99)*histogramMargin), histogramMin), histogramMax)
}
