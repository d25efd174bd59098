package kernel

import (
	"slices"
	"testing"
	"time"
)

func TestReclaim(t *testing.T) {
	for _, tc := range []struct {
		name string
		ages []time.Duration
		n    int
		want []int
	}{
		{"oldest first", []time.Duration{1, 5, 3, 4}, 3, []int{1, 3, 2}},
		{"ties in input order", []time.Duration{2, 7, 2, 7, 2}, 4, []int{1, 3, 0, 2}},
		{"all tied", []time.Duration{time.Minute, time.Minute, time.Minute}, 2, []int{0, 1}},
		{"n = 0", []time.Duration{1, 2}, 0, nil},
		{"negative n", []time.Duration{1, 2}, -1, nil},
		{"n > len", []time.Duration{3, 1, 2}, 5, []int{0, 2, 1}},
		{"empty", nil, 2, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ages := slices.Clone(tc.ages)
			got := Reclaim(ages, tc.n)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("Reclaim(%v, %d) = %v, want %v", tc.ages, tc.n, got, tc.want)
			}
			if !slices.Equal(ages, tc.ages) {
				t.Fatalf("Reclaim reordered its input: %v, was %v", ages, tc.ages)
			}
		})
	}
}

// FuzzReclaim checks Reclaim against its contract written as a
// selection: n times, take the first of the oldest left. So it picks the
// n oldest, oldest first, and equal ages in input order. An age byte is
// seconds, few enough values that ties are common; the seeds are
// TestReclaim's rows.
func FuzzReclaim(f *testing.F) {
	f.Add([]byte{1, 5, 3, 4}, 3)
	f.Add([]byte{2, 7, 2, 7, 2}, 4)
	f.Add([]byte{60, 60, 60}, 2)
	f.Add([]byte{1, 2}, 0)
	f.Add([]byte{1, 2}, -1)
	f.Add([]byte{3, 1, 2}, 5)
	f.Add([]byte{}, 2)
	// Ties past a dozen entries, where an unstable sort stops sorting by
	// insertion and reorders them.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 13)
	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		ages := make([]time.Duration, len(raw))
		for i, b := range raw {
			ages[i] = time.Duration(b%16) * time.Second
		}
		var want []int
		taken := make([]bool, len(ages))
		for len(want) < min(n, len(ages)) {
			pick := -1
			for i, a := range ages {
				if !taken[i] && (pick < 0 || a > ages[pick]) {
					pick = i
				}
			}
			taken[pick] = true
			want = append(want, pick)
		}
		if got := Reclaim(ages, n); !slices.Equal(got, want) {
			t.Fatalf("Reclaim(%v, %d) = %v, want %v", ages, n, got, want)
		}
	})
}
