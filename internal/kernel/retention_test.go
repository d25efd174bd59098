package kernel

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

func TestExpired(t *testing.T) {
	for _, tc := range []struct {
		idle, window time.Duration
		want         bool
	}{
		{time.Minute - 1, time.Minute, false},
		{time.Minute, time.Minute, true},
		{time.Hour, time.Minute, true},
		{time.Hour, 0, false},  // never expires
		{time.Hour, -1, false}, // never expires
		{0, 1, false},
	} {
		if got := Expired(tc.idle, tc.window); got != tc.want {
			t.Errorf("Expired(%v, %v) = %v, want %v", tc.idle, tc.window, got, tc.want)
		}
	}
}

func TestFixedIgnoresArrivals(t *testing.T) {
	f := Fixed(10 * time.Minute)
	for i := range 100 {
		f.Arrive("a", time.Duration(i)*time.Second)
	}
	if f.Window("a") != 10*time.Minute || f.Window("b") != 10*time.Minute {
		t.Fatalf("Fixed windows moved: %v, %v", f.Window("a"), f.Window("b"))
	}
}

func TestHistogramConservativeWithoutSignal(t *testing.T) {
	h := NewHistogram()
	if w := h.Window("a"); w != histogramMax {
		t.Fatalf("no-history window = %v, want the conservative %v", w, histogramMax)
	}
	h.Arrive("a", 0)
	h.Arrive("a", time.Second) // one inter-arrival time is still no signal
	if w := h.Window("a"); w != histogramMax {
		t.Fatalf("one-sample window = %v, want the conservative %v", w, histogramMax)
	}
}

func TestHistogramClampsToMin(t *testing.T) {
	h := NewHistogram()
	// Rapid-fire arrivals: inter-arrival times near zero clamp to the minimum.
	for i := range 10 {
		h.Arrive("a", time.Duration(i)*100*time.Millisecond)
	}
	if w := h.Window("a"); w != histogramMin {
		t.Fatalf("window = %v, want clamped to %v", w, histogramMin)
	}
}

func TestHistogramWindowIsMarginedP99(t *testing.T) {
	h := NewHistogram()
	now := time.Duration(0)
	for i := range 101 {
		h.Arrive("a", now)
		now += time.Duration(i+1) * time.Second // gaps 1 s … 101 s
		h.Arrive("b", time.Duration(i)*time.Hour)
	}
	// 100 gaps of 1…100 s: the p99 index is 98, 99 s, × 1.2.
	if w, want := h.Window("a"), time.Duration(float64(99*time.Second)*1.2); w != want {
		t.Fatalf("window = %v, want %v", w, want)
	}
	if w := h.Window("b"); w != histogramMax {
		t.Fatalf("hourly key's window = %v, want clamped to %v", w, histogramMax)
	}
}

// The kept-sorted history gives the window a sort of the latest
// inter-arrival times gives, across the cut from 4096 to 2048.
func TestHistogramMatchesSortedHistory(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewPCG(1, 2))
	var iats []time.Duration
	now := time.Duration(0)
	h.Arrive("a", now)
	for i := range 3 * histogramCap {
		iat := time.Duration(r.IntN(int(30 * time.Second)))
		now += iat
		h.Arrive("a", now)
		if iats = append(iats, iat); len(iats) > histogramCap {
			iats = iats[len(iats)-histogramKeep:]
		}
		if i%31 != 0 && len(iats) != histogramKeep {
			continue // check every 31st arrival and each cut
		}
		sorted := slices.Clone(iats)
		slices.Sort(sorted)
		want := histogramMax
		if len(sorted) >= 2 {
			want = min(max(time.Duration(float64(sorted[int(float64(len(sorted)-1)*0.99)])*histogramMargin), histogramMin), histogramMax)
		}
		if got := h.Window("a"); got != want {
			t.Fatalf("with %d samples: window = %v, want %v", len(iats), got, want)
		}
	}
}

// FuzzRetention holds the keep-alive rules to their contracts over
// arbitrary arrival sequences and idle ages. One key arrives n times, the
// gap before arrival i being unit × pattern[i mod len(pattern)] scaled by
// 1 + (n-1-i)/2048, so that earlier gaps run longer than later ones and a
// history cut at the wrong end shows. Expired is false for
// a window ≤ 0 and otherwise true exactly when idleFor reaches the
// window; the histogram's window stays within [10 s, 1 h], is 1 h while
// the key has fewer than two gaps, and, past histogramCap, is the one a
// sort of the latest gaps, cut to histogramKeep as the history is,
// gives.
func FuzzRetention(f *testing.F) {
	s := int64(time.Second)
	// TestExpired's rows, a window on the edge of its idle age first.
	f.Add([]byte{1}, uint16(0), uint32(1000), int64(time.Minute), int64(time.Minute))
	f.Add([]byte{1}, uint16(1), uint32(1000), int64(time.Minute-1), int64(time.Minute))
	f.Add([]byte{1}, uint16(2), uint32(1000), int64(time.Hour), int64(0))
	f.Add([]byte{1}, uint16(2), uint32(1000), int64(time.Hour), int64(-1))
	// TestHistogramClampsToMin's rapid fire, TestHistogramWindowIsMarginedP99's
	// ramp and hourly arrivals, and TestHistogramMatchesSortedHistory's
	// run across the cut.
	f.Add([]byte{1}, uint16(10), uint32(100), 9*s, 10*s)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(101), uint32(1000), 100*s, 120*s)
	f.Add([]byte{36}, uint16(101), uint32(100_000), int64(time.Hour), int64(time.Hour))
	f.Add([]byte{17, 200, 3, 90, 255, 41, 128}, uint16(3*histogramCap), uint32(100), 30*s, 20*s)
	f.Fuzz(func(t *testing.T, pattern []byte, n uint16, unitMs uint32, idleFor, window int64) {
		if want := window > 0 && idleFor >= window; Expired(time.Duration(idleFor), time.Duration(window)) != want {
			t.Fatalf("Expired(%v, %v) = %v, want %v", time.Duration(idleFor), time.Duration(window), !want, want)
		}
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		arrivals := min(int(n), 3*histogramCap)
		unit := time.Duration(unitMs%1000) * time.Millisecond // gaps below 2 h: now cannot overflow
		h := NewHistogram()
		var gaps []time.Duration
		now := time.Duration(0)
		for i := range arrivals {
			if i > 0 {
				gap := unit * time.Duration(pattern[i%len(pattern)]) * time.Duration(1+(arrivals-1-i)/histogramKeep)
				now += gap
				if gaps = append(gaps, gap); len(gaps) > histogramCap {
					gaps = gaps[len(gaps)-histogramKeep:]
				}
			}
			h.Arrive("k", now)
			w := h.Window("k")
			if w < histogramMin || w > histogramMax {
				t.Fatalf("after %d arrivals the window is %v, outside [%v, %v]", i+1, w, histogramMin, histogramMax)
			}
			if i < 2 && w != histogramMax {
				t.Fatalf("with %d gaps the window is %v, want %v", i, w, histogramMax)
			}
		}
		if arrivals <= histogramCap {
			return
		}
		sorted := slices.Clone(gaps)
		slices.Sort(sorted)
		want := min(max(time.Duration(float64(sorted[int(float64(len(sorted)-1)*0.99)])*histogramMargin), histogramMin), histogramMax)
		if got := h.Window("k"); got != want {
			t.Fatalf("after %d arrivals the window is %v, a sort of the latest %d gaps gives %v", arrivals, got, len(gaps), want)
		}
	})
}
