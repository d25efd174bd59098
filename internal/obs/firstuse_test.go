package obs

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// allocSink keeps what an allocation-budget test builds on the heap.
var allocSink any

// allocatedBytes reports the fewest bytes f allocated over three runs,
// so a background allocation elsewhere in the process cannot fail a
// budget.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	best := uint64(math.MaxUint64)
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// A ring and an SLO monitor are only as large as what was written to
// them: building one allocates its chunk table, not its slots or
// buckets (~2 MB and ~100 KB if allocated up front). verify.sh runs it
// in its non-race alloc pass.
func TestTraceRingAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const budget = 2 << 10
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"NewTraceRing(8192)", func() { allocSink = NewTraceRing(8192) }},
		{"NewSLOMonitor(30m)", func() {
			allocSink = NewSLOMonitor(SLOConfig{LatencyThreshold: time.Second})
		}},
	} {
		if got := allocatedBytes(c.f); got > budget {
			t.Errorf("%s allocates %d B, budget %d B", c.name, got, budget)
		} else {
			t.Logf("%s allocates %d B (budget %d B)", c.name, got, budget)
		}
	}
}

// A capacity that is not a multiple of the chunk ends in a part-used
// chunk; wrapping across it must keep exactly the newest capacity
// spans, newest first, and a chunk exists only once a span reached it.
func TestTraceRingWrapsAcrossChunks(t *testing.T) {
	const capacity = 100
	r := NewTraceRing(capacity)
	if len(r.Snapshot()) != 0 {
		t.Fatal("a fresh ring has spans")
	}
	for n := 1; n <= 250; n++ {
		sp := Span{ID: n}
		if !r.Put(&sp, []SpanEvent{{Kind: "e", At: time.Duration(n)}}) {
			t.Fatalf("uncontended Put %d dropped", n)
		}
		if n == ringChunk && r.chunks[1].Load() != nil {
			t.Fatalf("after %d spans the second chunk exists", n)
		}
		got := r.Snapshot()
		if want := min(n, capacity); len(got) != want {
			t.Fatalf("after %d spans Snapshot has %d, want %d", n, len(got), want)
		}
		for i, sp := range got {
			if sp.ID != n-i || len(sp.Events) != 1 || sp.Events[0].At != time.Duration(n-i) {
				t.Fatalf("after %d spans Snapshot[%d] = span %d %+v, want span %d with its own event",
					n, i, sp.ID, sp.Events, n-i)
			}
		}
	}
}

// Writers racing to be first into a fresh ring's chunks, against a
// reader: every chunk is allocated once and every span is either kept
// or counted as contended. verify.sh runs it three times under -race.
func TestTraceRingConcurrentFirstUse(t *testing.T) {
	const capacity, writers, per = 300, 4, 200
	for round := 0; round < 20; round++ {
		r := NewTraceRing(capacity)
		start := make(chan struct{})
		done := make(chan struct{})
		var wg, readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for {
				for _, sp := range r.Snapshot() {
					if sp.ID == 0 {
						t.Error("snapshot surfaced an unfilled span")
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ev := [1]SpanEvent{{Kind: "k"}}
				<-start
				for i := 0; i < per; i++ {
					sp := Span{ID: w*per + i + 1}
					r.Put(&sp, ev[:])
				}
			}(w)
		}
		close(start)
		wg.Wait()
		close(done)
		readers.Wait()
		if got := r.Written() + r.Contended(); got != writers*per {
			t.Fatalf("Written+Contended = %d, want %d", got, writers*per)
		}
		for c := range r.chunks {
			if r.chunks[c].Load() == nil {
				t.Fatalf("chunk %d missing after %d spans", c, writers*per)
			}
		}
		snap := r.Snapshot()
		if len(snap) > capacity {
			t.Fatalf("snapshot exceeds capacity: %d", len(snap))
		}
		seen := make(map[int]bool, len(snap))
		for _, sp := range snap {
			if sp.ID == 0 || seen[sp.ID] {
				t.Fatalf("snapshot holds span %d twice or unfilled", sp.ID)
			}
			seen[sp.ID] = true
		}
	}
}

// sloModel is the monitor's arithmetic kept the obvious way: one map
// entry of counts per recorded second, summed over each window.
type sloModel map[int64]*sloCounts

func (mo sloModel) record(sec int64, status int, served, cold, slow bool) {
	c := mo[sec]
	if c == nil {
		c = new(sloCounts)
		mo[sec] = c
	}
	c.total++
	if status >= 200 && status < 300 {
		c.ok++
		if slow {
			c.slow++
		}
	}
	if status >= 500 {
		c.errs++
	}
	if served {
		c.served++
		if cold {
			c.cold++
		}
	}
}

func (mo sloModel) window(now int64, w time.Duration) sloCounts {
	var sum sloCounts
	for s, c := range mo {
		if s > now-int64(w/time.Second) && s <= now {
			sum.total += c.total
			sum.ok += c.ok
			sum.served += c.served
			sum.slow += c.slow
			sum.cold += c.cold
			sum.errs += c.errs
		}
	}
	return sum
}

// 12 000 s on a fake clock, with quiet gaps longer than a chunk and
// longer than the 30 m horizon, and stretches of steady traffic longer
// than the horizon between them: the monitor's report equals the
// per-second model's, so missing chunks read as empty and recycled
// buckets forget what they held.
func TestSLOMatchesPerSecondModel(t *testing.T) {
	m, now := sloAt(SLOConfig{
		LatencyThreshold: 100 * time.Millisecond,
		ColdStartBudget:  0.05,
	})
	start := now.Unix()
	model := sloModel{}
	rng := rand.New(rand.NewSource(1))
	statuses := []int{200, 200, 200, 200, 429, 500}
	check := func() {
		t.Helper()
		sec := now.Unix()
		rep := m.Report()
		for _, obj := range rep.Objectives {
			for i, w := range obj.Windows {
				c := model.window(sec, sloWindows[i])
				total, bad := c.total, c.errs
				switch obj.Name {
				case SLOLatency:
					total, bad = c.ok, c.slow
				case SLOColdStart:
					total, bad = c.served, c.cold
				}
				if w.Total != total || w.Bad != bad {
					t.Fatalf("at %d s, %s over %v: %d/%d, model %d/%d",
						sec-start, obj.Name, sloWindows[i], w.Bad, w.Total, bad, total)
				}
			}
		}
	}
	check() // nothing recorded: every chunk is missing
	var chunkGaps, horizonGaps, recycled int
	last := map[int64]int64{} // bucket index → last second recorded into it
	for now.Unix()-start < 12000 {
		switch p := rng.Intn(1000); {
		case p < 30:
			chunkGaps++
			*now = now.Add(time.Duration(sloChunk+rng.Intn(2*sloChunk)) * time.Second)
		case p < 32:
			horizonGaps++
			*now = now.Add(time.Duration(1800+rng.Intn(400)) * time.Second)
		case p < 200:
			// several steps inside one second
		default:
			*now = now.Add(time.Second)
		}
		for n := rng.Intn(4); n > 0; n-- {
			status := statuses[rng.Intn(len(statuses))]
			served, cold, slow := status != 429, rng.Intn(8) == 0, rng.Intn(5) == 0
			latency := 10 * time.Millisecond
			if slow {
				latency = 200 * time.Millisecond
			}
			m.Record(status, served, cold, latency)
			model.record(now.Unix(), status, served, cold, slow)
			sec := now.Unix()
			if prev, ok := last[sec%m.buckets]; ok && prev != sec {
				recycled++
			}
			last[sec%m.buckets] = sec
		}
		check()
	}
	if chunkGaps == 0 || horizonGaps == 0 || recycled == 0 {
		t.Fatalf("%d gaps past a chunk, %d past the horizon and %d recycled buckets, want some of each",
			chunkGaps, horizonGaps, recycled)
	}
}
