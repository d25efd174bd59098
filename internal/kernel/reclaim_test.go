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
