package trace

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
)

// csvHeader is the schedule file column layout.
var csvHeader = []string{"at_ms", "class", "round"}

// WriteCSV writes a request schedule as CSV with an "at_ms,class,round"
// header, so real traces can be exported, edited and replayed. Times
// carry six decimals, whole nanoseconds, so ReadCSV gets them back
// exactly.
func WriteCSV(w io.Writer, reqs []Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for i, r := range reqs {
		rec := []string{
			strconv.FormatFloat(float64(r.At)/float64(time.Millisecond), 'f', 6, 64),
			strconv.Itoa(r.Class),
			strconv.Itoa(r.Round),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a schedule written by WriteCSV (or hand-authored with
// the same header). Rows must carry non-negative times, classes and
// rounds; times are rounded to the nanosecond, and the result is
// sorted by arrival time, preserving file order for equal timestamps.
func ReadCSV(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	// Each Read may reuse the last record's slice: the header is checked,
	// and every row parsed, before the next Read.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("trace: bad header %v, want %v", header, csvHeader)
		}
	}
	var reqs []Request
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		atMS, err := strconv.ParseFloat(rec[0], 64)
		if err != nil || atMS < 0 {
			return nil, fmt.Errorf("trace: line %d: bad at_ms %q", line, rec[0])
		}
		class, err := strconv.Atoi(rec[1])
		if err != nil || class < 0 {
			return nil, fmt.Errorf("trace: line %d: bad class %q", line, rec[1])
		}
		round, err := strconv.Atoi(rec[2])
		if err != nil || round < 0 {
			return nil, fmt.Errorf("trace: line %d: bad round %q", line, rec[2])
		}
		reqs = append(reqs, Request{
			At:    time.Duration(math.Round(atMS * float64(time.Millisecond))),
			Class: class,
			Round: round,
		})
	}
	slices.SortStableFunc(reqs, func(a, b Request) int { return cmp.Compare(a.At, b.At) })
	return reqs, nil
}
