package trace

import "testing"

func TestReplay(t *testing.T) {
	if replay() != 1 {
		t.Fatal("replay")
	}
}
