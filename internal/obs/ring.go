package obs

import (
	"sort"
	"sync/atomic"
)

// TraceRing is the bounded buffer of recently kept spans behind the
// live gateway's /system/trace endpoint. It is built for a hot write
// path and a cold read path:
//
//   - Writers never block. A global atomic sequence assigns each kept
//     span a slot; the slot is claimed with a single CAS. If the claim
//     fails (a reader is copying it, or the ring wrapped onto a slot
//     another writer still holds), the span is dropped and counted
//     rather than waited for — a trace buffer must never become the
//     contention point it exists to diagnose.
//   - Slots live in ringChunk-slot chunks, each allocated by the first
//     writer to reach it (one CAS publishes it; a losing writer uses
//     the winner's). A ring is only as large as what was written to it,
//     and once a slot and its event backing array exist, recording a
//     span costs zero heap allocations.
//   - Readers (scrapes of /system/trace) claim slots with the same
//     CAS, copy, and release; they skip — not wait on — slots a writer
//     holds mid-copy.
type TraceRing struct {
	// chunks hold the slots, nil until first written: slot i is
	// chunks[i/ringChunk][i%ringChunk], for i below capacity.
	chunks   []atomic.Pointer[[ringChunk]ringSlot]
	capacity uint64
	// seq counts slot reservations; slot for reservation i is i % capacity.
	seq atomic.Uint64
	// contended counts spans dropped because their slot was busy.
	contended atomic.Uint64
}

type ringSlot struct {
	// busy is the slot's claim flag: a single-owner spin claim taken
	// by CAS and released by Store, which the race detector and the
	// memory model both understand (unlike a seqlock's bare reads).
	busy   atomic.Bool
	seq    uint64 // reservation number of the held span
	filled bool
	span   Span // span.Events aliases a slot-owned backing array
}

// ringChunk is how many slots are allocated together on first write.
const ringChunk = 64

// NewTraceRing returns a ring with the given capacity (minimum 1). It
// allocates no slot: each chunk of them comes with its first span.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	n := (capacity + ringChunk - 1) / ringChunk
	return &TraceRing{chunks: make([]atomic.Pointer[[ringChunk]ringSlot], n), capacity: uint64(capacity)}
}

// Capacity reports the number of slots.
func (r *TraceRing) Capacity() int { return int(r.capacity) }

// slot returns slot i, allocating its chunk if no writer has yet.
func (r *TraceRing) slot(i uint64) *ringSlot {
	c := &r.chunks[i/ringChunk]
	p := c.Load()
	if p == nil {
		c.CompareAndSwap(nil, new([ringChunk]ringSlot))
		p = c.Load()
	}
	return &p[i%ringChunk]
}

// Written reports how many spans were successfully recorded.
func (r *TraceRing) Written() uint64 { return r.seq.Load() - r.contended.Load() }

// Contended reports how many spans were dropped because their slot
// was held by a concurrent reader or a lapped writer.
func (r *TraceRing) Contended() uint64 { return r.contended.Load() }

// Put records a span. events are copied into the slot's own backing
// array, so the caller's slice (typically a stack-allocated scratch
// array) is never retained — which is what keeps the caller's request
// state off the heap. Returns false when the slot was busy and the
// span was dropped.
func (r *TraceRing) Put(sp *Span, events []SpanEvent) bool {
	idx := r.seq.Add(1) - 1
	slot := r.slot(idx % r.capacity)
	if !slot.busy.CompareAndSwap(false, true) {
		r.contended.Add(1)
		return false
	}
	buf := slot.span.Events[:0] // keep the slot's backing array
	slot.span = *sp
	slot.span.Events = append(buf, events...)
	slot.seq = idx
	slot.filled = true
	slot.busy.Store(false)
	return true
}

// Snapshot copies the ring's current spans, newest first. Slots a
// writer holds at the instant of the scan are skipped, not waited on,
// and so are chunks no writer has reached. Event slices are
// deep-copied so the caller's view is immune to the slot being
// overwritten afterwards.
func (r *TraceRing) Snapshot() []Span {
	type entry struct {
		seq  uint64
		span Span
	}
	entries := make([]entry, 0, min(r.seq.Load(), r.capacity))
	for c := range r.chunks {
		chunk := r.chunks[c].Load()
		if chunk == nil {
			continue
		}
		for i := range min(ringChunk, r.capacity-uint64(c)*ringChunk) {
			slot := &chunk[i]
			if !slot.busy.CompareAndSwap(false, true) {
				continue
			}
			if slot.filled {
				sp := slot.span
				sp.Events = append([]SpanEvent(nil), slot.span.Events...)
				entries = append(entries, entry{slot.seq, sp})
			}
			slot.busy.Store(false)
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].seq > entries[b].seq })
	out := make([]Span, len(entries))
	for i, e := range entries {
		out[i] = e.span
	}
	return out
}
