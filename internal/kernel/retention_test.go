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
