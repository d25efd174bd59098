package trace

import "testing"

func TestSortByTime(t *testing.T) {
	sortByTime(nil)
}
