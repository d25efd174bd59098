package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the recorder was made.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// maxSpans bounds recorder memory (~50 MB); spans past it are counted,
// not kept.
const maxSpans = 1 << 20

// recorder keeps the traced pass's spans in memory until the run ends.
// A nil recorder records nothing, which is how the untraced pass runs
// the same code.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped uint64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores the finished spans of one call or request and gives them
// consecutive IDs. Parent and Req are given relative to the batch: 1
// means "the first span of this batch", 0 means none.
func (r *recorder) add(batch ...span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans)+len(batch) > maxSpans {
		r.dropped += uint64(len(batch))
		return
	}
	base := r.nextID
	r.nextID += uint64(len(batch))
	for i := range batch {
		batch[i].ID = base + uint64(i) + 1
		if batch[i].Parent != 0 {
			batch[i].Parent += base
		}
		if batch[i].Req != 0 {
			batch[i].Req += base
		}
	}
	r.spans = append(r.spans, batch...)
}

// call records a root span around fn.
func (r *recorder) call(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := r.now()
	err := fn()
	r.add(span{Name: name, Start: start, End: r.now()})
	return err
}

// spanSummary is one span name's totals: Self is the time not covered
// by child spans, i.e. what the layer itself spent.
type spanSummary struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (r *recorder) summarize() (out []spanSummary, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childNs := make(map[uint64]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range r.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.End - s.Start
		sum.N++
		sum.TotalMS += float64(d) / 1e6
		sum.SelfMS += float64(d-childNs[s.ID]) / 1e6
	}
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, r.dropped
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
