package main

import (
	"bytes"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the generator's whole footprint: this many goroutines,
// each owning one connection. It equals nproc on the 2-core box the
// bounds were sized on; more clients than cores would measure the
// generator fighting the server for CPU.
const clients = 2

// Boot modes, from X-Hotc-Reused and X-Hotc-Boot.
const (
	modeWarm = iota
	modeRented
	modeGeneric
	modeCold
	numModes
)

var modeNames = [numModes]string{"warm", "rented", "generic", "cold"}

// sample is one attempted request. Times are nanoseconds from the
// window start; due equals sent on a closed loop.
type sample struct {
	due, sent, first, done int64
	ok                     bool
	mode                   uint8
	node                   string
	attempts               int
}

// payload is a request body and what its echo must look like. Bodies
// too big to compare in the worker's buffer are verified by length and
// CRC-32 while streaming.
type payload struct {
	data []byte
	crc  uint32
}

func newPayload(rng *rand.Rand, size int) payload {
	p := payload{data: make([]byte, size)}
	rng.Read(p.data) // math/rand's Read never fails
	p.crc = crc32.ChecksumIEEE(p.data)
	return p
}

// target is one function the load cycles over.
type target struct {
	url string
	// echo means the reply must be the request body; otherwise a 2xx
	// is all that is checked (the sleep builtin).
	echo     bool
	payloads []payload
}

// worker is one client goroutine with its own connection.
type worker struct {
	id      int
	client  *http.Client
	buf     []byte
	seq     uint64
	samples []sample
	// traced adds a traceparent to every request and records spans.
	traced bool
	rec    *recorder
	// wantNode makes a reply without X-Hotc-Node a failure (routed
	// workloads).
	wantNode bool
}

func newWorker(id int) *worker {
	return &worker{
		id: id,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		buf: make([]byte, 64<<10),
	}
}

func (w *worker) close() { w.client.CloseIdleConnections() }

const hexDigits = "0123456789abcdef"

// traceparent renders a W3C version-00 header from two non-zero
// counters.
func traceparent(trace, parent uint64) string {
	var b [55]byte
	copy(b[:], "00-0000000000000000")
	hex64(b[19:35], trace)
	b[35] = '-'
	hex64(b[36:52], parent)
	copy(b[52:], "-01")
	return string(b[:])
}

func hex64(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// do sends one request to t and verifies the reply. epoch is the
// window start; due is the request's scheduled offset (negative for a
// closed loop, which is due when it is sent).
func (w *worker) do(t *target, epoch time.Time, due int64) sample {
	w.seq++
	p := t.payloads[w.seq%uint64(len(t.payloads))]
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(p.data))
	if err != nil {
		return sample{due: due}
	}
	if w.traced {
		req.Header.Set(hdrTraceparent, traceparent(uint64(w.id+1)<<56|w.seq, w.seq))
	}
	s := sample{sent: int64(time.Since(epoch))}
	s.due = due
	if due < 0 {
		s.due = s.sent
	}
	resp, err := w.client.Do(req)
	s.first = int64(time.Since(epoch))
	if err == nil {
		s.ok = w.verify(t, p, resp)
		h := resp.Header
		s.node = h.Get(hdrNode)
		s.attempts, _ = strconv.Atoi(h.Get(hdrAttempts)) // absent off the router: 0
		switch {
		case h.Get(hdrReused) == "true":
			s.mode = modeWarm
		case h.Get(hdrBoot) == "rented":
			s.mode = modeRented
		case h.Get(hdrBoot) == "generic":
			s.mode = modeGeneric
		default:
			s.mode = modeCold
		}
		if w.wantNode && s.node == "" {
			s.ok = false
		}
	}
	s.done = int64(time.Since(epoch))
	if w.rec != nil {
		off := int64(epoch.Sub(w.rec.epoch))
		w.rec.add(
			span{Name: "request", Req: 1, Start: off + s.sent, End: off + s.done},
			span{Name: "request.first_byte", Parent: 1, Req: 1, Start: off + s.sent, End: off + s.first},
			span{Name: "request.body_verify", Parent: 1, Req: 1, Start: off + s.first, End: off + s.done},
		)
	}
	return s
}

// verify drains the body and checks status and content.
func (w *worker) verify(t *target, p payload, resp *http.Response) bool {
	defer resp.Body.Close()
	okStatus := resp.StatusCode >= 200 && resp.StatusCode < 300
	if !t.echo || !okStatus {
		_, err := io.Copy(io.Discard, resp.Body)
		return okStatus && err == nil
	}
	if len(p.data) < len(w.buf) {
		// Small echo: byte-identical. One spare byte of room catches a
		// reply that is too long.
		n, err := io.ReadFull(resp.Body, w.buf[:len(p.data)+1])
		return err == io.ErrUnexpectedEOF && n == len(p.data) && bytes.Equal(w.buf[:n], p.data)
	}
	var crc uint32
	total := 0
	for {
		n, err := resp.Body.Read(w.buf)
		crc = crc32.Update(crc, crc32.IEEETable, w.buf[:n])
		total += n
		if err == io.EOF {
			return total == len(p.data) && crc == p.crc
		}
		if err != nil {
			return false
		}
	}
}

// load describes one window of traffic.
type load struct {
	targets []*target
	// cycle indexes targets per request; closed loops use it too.
	cycle []int
	// rate > 0 paces an open loop at that many requests per second,
	// with at most `clients` outstanding; 0 is a closed loop.
	rate float64
	// offset continues the cycle where the previous window stopped.
	offset int
}

// run drives the load for d and returns every attempted request in
// completion order plus the cycle position reached.
func (l *load) run(workers []*worker, d time.Duration) ([]sample, int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	limit := int64(-1)
	var pace pacer
	if l.rate > 0 {
		pace = newPacer(l.rate)
		limit = int64(d) / pace.intervalNs
	}
	for _, w := range workers {
		w.samples = w.samples[:0]
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				due := int64(-1)
				if l.rate > 0 {
					due = pace.due(int(i))
					if wait := due - int64(time.Since(epoch)); wait > 0 {
						time.Sleep(time.Duration(wait))
					}
				} else if time.Since(epoch) >= d {
					return
				}
				t := l.targets[l.cycle[(l.offset+int(i))%len(l.cycle)]]
				w.samples = append(w.samples, w.do(t, epoch, due))
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, w := range workers {
		all = append(all, w.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all, l.offset + len(all)
}
