package meter

import "testing"

func TestPeak(t *testing.T) {
	g := New()
	g.Set(3)
	if g.Peak() != 3 {
		t.Fatal(g.Peak())
	}
	Reset(g)
}
