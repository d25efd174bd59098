package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hotc/internal/rng"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Burst{Base: 3, Factor: 5, BurstRounds: []int{1}, Rounds: 3, Interval: 30 * time.Second}.Generate()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("len = %d, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("row %d: %+v != %+v", i, back[i], orig[i])
		}
	}
}

// A campus day's arrivals fall on arbitrary nanoseconds: six decimals
// of at_ms bring every one back (three moved 160 549 of these 160 703).
func TestCSVRoundTripCampusDay(t *testing.T) {
	orig := Campus{Seed: 7, Scale: 1, Classes: 4}.Generate()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("len = %d, want %d", len(back), len(orig))
	}
	moved := 0
	for i := range orig {
		if back[i] != orig[i] {
			moved++
		}
	}
	if moved > 0 {
		t.Fatalf("%d of %d rows came back changed", moved, len(orig))
	}
}

func TestCSVEmptySchedule(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("len = %d", len(back))
	}
}

func TestReadCSVSortsByTime(t *testing.T) {
	in := "at_ms,class,round\n2000.000,0,1\n1000.000,1,0\n"
	reqs, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].At != time.Second || reqs[1].At != 2*time.Second {
		t.Fatalf("not sorted: %+v", reqs)
	}
}

// A shuffled file comes back ordered by time, rows with equal
// timestamps in file order. Class carries each row's file position.
func TestReadCSVOrdersShuffledFile(t *testing.T) {
	const rows = 50000
	src := rng.New(3)
	var b strings.Builder
	b.WriteString("at_ms,class,round\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d.5,%d,0\n", src.Intn(rows/10), i) // ~10 rows per timestamp
	}
	reqs, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != rows {
		t.Fatalf("len = %d, want %d", len(reqs), rows)
	}
	for i := 1; i < rows; i++ {
		prev, r := reqs[i-1], reqs[i]
		if r.At < prev.At || r.At == prev.At && r.Class < prev.Class {
			t.Fatalf("row %d (%v, file row %d) after (%v, file row %d)", i, r.At, r.Class, prev.At, prev.Class)
		}
	}
}

// BenchmarkReadCSV reads a 40 000-row file written in reverse time
// order, the worst case for an insertion sort.
func BenchmarkReadCSV(b *testing.B) {
	reqs := make([]Request, 40000)
	for i := range reqs {
		reqs[i] = Request{At: time.Duration(len(reqs)-i) * time.Millisecond, Round: i}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// ReadCSV makes one allocation a row, the string csv slices the row's
// fields from, plus the schedule's growth and the reader's own: a record
// slice a row besides made it two.
func TestReadCSVAllocBudget(t *testing.T) {
	const rows, overhead = 4000, 64
	reqs := make([]Request, rows)
	for i := range reqs {
		reqs[i] = Request{At: time.Duration(i) * time.Millisecond, Class: i % 4, Round: i}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations over %d rows", allocs, rows)
	if allocs > rows+overhead {
		t.Fatalf("reading %d rows makes %.0f allocations, budget %d", rows, allocs, rows+overhead)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                                 // no header
		"x,y,z\n",                          // wrong header
		"at_ms,class,round\nnope,0,0\n",    // bad time
		"at_ms,class,round\n-5,0,0\n",      // negative time
		"at_ms,class,round\n1,zero,0\n",    // bad class
		"at_ms,class,round\n1,-1,0\n",      // negative class
		"at_ms,class,round\n1,0,bad\n",     // bad round
		"at_ms,class,round\n1,0,-2\n",      // negative round
		"at_ms,class,round\n1,0\n",         // wrong field count
		"at_ms,class,round\n1,0,0,extra\n", // wrong field count
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
}

// Property: any generated schedule survives a CSV round trip exactly.
func TestPropertyCSVRoundTrip(t *testing.T) {
	f := func(n uint8, interval uint8, classes uint8) bool {
		p := Parallel{
			Threads:  int(classes%5) + 1,
			Interval: time.Duration(interval%60+1) * time.Second,
			Rounds:   int(n % 20),
		}
		orig := p.Generate()
		var buf bytes.Buffer
		if err := WriteCSV(&buf, orig); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(orig) {
			return false
		}
		for i := range orig {
			if back[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
