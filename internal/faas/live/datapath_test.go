package live

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// streamEcho is the canonical StreamHandler: a pooled pass-through
// copy, never holding more than one chunk.
func streamEcho(r io.Reader, w io.Writer) error {
	_, err := copyPooled(w, r)
	return err
}

// patternedPayload builds a deterministic, non-repeating body so a
// chunk delivered out of order or twice cannot pass the equality
// check.
func patternedPayload(n int) []byte {
	p := make([]byte, n)
	x := uint32(2463534242)
	for i := range p {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p[i] = byte(x)
	}
	return p
}

// Eight mebibytes must flow through a StreamHandler byte-for-byte over
// the real socket path — proving no stage of the pipeline buffers or
// truncates the payload — and the gateway's own headers must survive
// the streamed response.
func TestStreamLargePayloadRoundTrip(t *testing.T) {
	g := NewGateway(true)
	if err := g.Register(Function{Name: "big", Stream: streamEcho}); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	payload := patternedPayload(8 << 20)
	for i, wantReused := range []string{"false", "true"} {
		resp, err := http.Post(base+"/function/big", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", i, resp.StatusCode)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: %d bytes back (want %d), integrity lost", i, len(got), len(payload))
		}
		if hv := resp.Header.Get("X-Hotc-Reused"); hv != wantReused {
			t.Fatalf("round %d: X-Hotc-Reused = %q, want %q", i, hv, wantReused)
		}
	}
}

// The pooled compat shim must carry the same 8 MiB for plain []byte
// handlers, and — because the watchdog declares the response length —
// the gateway must forward Content-Length instead of chunking.
func TestBytesLargePayloadForwardsLength(t *testing.T) {
	g := NewGateway(true)
	if err := g.Register(Function{
		Name:    "big",
		Handler: func(b []byte) ([]byte, error) { return b, nil },
	}); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	payload := patternedPayload(8 << 20)
	resp, err := http.Post(base+"/function/big", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(payload)) {
		t.Fatalf("ContentLength = %d, want %d (watchdog length not forwarded)", resp.ContentLength, len(payload))
	}
	// The watchdog's sniffed Content-Type must ride along too.
	if resp.Header.Get("Content-Type") == "" {
		t.Fatal("watchdog Content-Type dropped")
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("%d bytes back (want %d), integrity lost", len(got), len(payload))
	}
}

// -max-body-size regression: a body declaring its oversize is rejected
// with 413 before any instance boots; an undeclared (chunked) oversize
// body against a buffered handler is caught by MaxBytesReader before
// the watchdog commits a status, so it answers 413 too; an in-bounds
// body sails through. (A *streaming* handler that has already
// committed its 200 can only truncate on overflow — HTTP cannot
// retract a sent status line — so the chunked case pins the buffered
// kind, where the 413 is deterministic.)
func TestMaxBodySizeRejectsOversize(t *testing.T) {
	g := New(PoolConfig{MaxBodyBytes: 1 << 10})
	if err := g.Register(Function{Name: "f", Stream: streamEcho}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Function{
		Name:    "buf",
		Handler: func(b []byte) ([]byte, error) { return b, nil },
	}); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	big := bytes.Repeat([]byte("x"), 4<<10)

	// Declared oversize: Content-Length is known, so the gateway must
	// answer 413 without booting (or touching) any instance.
	resp, err := http.Post(base+"/function/f", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize: status %d, want 413", resp.StatusCode)
	}
	if st := g.Stats(); st.ColdStarts != 0 {
		t.Fatalf("declared oversize booted %d instances; the early reject must be free", st.ColdStarts)
	}

	// Undeclared oversize: io.MultiReader hides the size, forcing
	// chunked encoding; MaxBytesReader trips while the watchdog shim
	// buffers the body, before any status is committed.
	resp, err = http.Post(base+"/function/buf", "text/plain", io.MultiReader(bytes.NewReader(big)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize: status %d, want 413", resp.StatusCode)
	}
	if res := g.ResilienceCounters(); res["proxy.failures"] != 0 {
		t.Fatalf("the client's oversized body was blamed on the watchdog: %v", res)
	}

	// An in-bounds request still works.
	resp, err = http.Post(base+"/function/f", "text/plain", strings.NewReader("ok"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("in-bounds: %d %q", resp.StatusCode, body)
	}
}

// The daemon plumbs PoolConfig.MaxBodyBytes through to the gateway.
func TestDaemonMaxBodySize(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{MaxBodyBytes: 512})
	if err := d.Deploy(DeploySpec{Name: "echo", Handler: "echo"}); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, base+"/function/echo", strings.Repeat("x", 2048))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/function/echo", "small"); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bounds status %d", resp.StatusCode)
	}
}

// upperStream must never split a UTF-8 rune across its 32 KiB chunk
// boundary: a leading ASCII byte misaligns a run of two-byte runes so
// every chunk ends mid-rune.
func TestUpperStreamRuneBoundaries(t *testing.T) {
	in := "a" + strings.Repeat("é", copyBufSize)
	var out bytes.Buffer
	if err := upperStream(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if want := strings.ToUpper(in); out.String() != want {
		t.Fatal("upperStream mangled runes across chunk boundaries")
	}

	// One-byte reads force the carry logic on every multi-byte rune.
	out.Reset()
	if err := upperStream(iotest.OneByteReader(strings.NewReader("héllo wörld")), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "HÉLLO WÖRLD" {
		t.Fatalf("one-byte reads: %q", got)
	}
}

// wordcountStream counts across chunk boundaries without buffering the
// body.
func TestWordcountStream(t *testing.T) {
	const words = 100_000
	var in strings.Builder
	for i := 0; i < words; i++ {
		fmt.Fprintf(&in, "word%d ", i)
	}
	var out bytes.Buffer
	if err := wordcountStream(strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "100000" {
		t.Fatalf("wordcount = %q, want 100000", got)
	}
}

// The streaming builtins behave like their buffered ancestors end to
// end through the daemon.
func TestBuiltinStreamsViaDaemon(t *testing.T) {
	d, base := startDaemon(t, PoolConfig{})
	for _, name := range []string{"echo", "upper", "wordcount"} {
		if err := d.Deploy(DeploySpec{Name: name, Handler: name}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ fn, in, want string }{
		{"echo", "héllo wörld", "héllo wörld"},
		{"upper", "héllo wörld", "HÉLLO WÖRLD"},
		{"wordcount", "a b  c\nd", "4"},
	} {
		resp := postJSON(t, base+"/function/"+tc.fn, tc.in)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(body) != tc.want {
			t.Fatalf("%s(%q) = %d %q, want %q", tc.fn, tc.in, resp.StatusCode, body, tc.want)
		}
	}
}

// The steady-state proxy copy must not touch the heap: every chunk
// moves through the recycled pool buffer. Guarded by verify.sh as the
// alloc-regression tier.
func TestCopyPooledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed under -race")
	}
	payload := bytes.Repeat([]byte("z"), 64<<10)
	src := bytes.NewReader(payload)
	if _, err := copyPooled(io.Discard, src); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(payload)
		if _, err := copyPooled(io.Discard, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("copyPooled allocates %.1f objects per copy; the pooled path must stay at 0", allocs)
	}
}

// The []byte compat shim's whole-body buffer recycles too: after the
// first request of a given size, invoking a buffered handler allocates
// no heap buffers at all.
func TestBytesShimZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed under -race")
	}
	payload := bytes.Repeat([]byte("z"), 64<<10)
	src := bytes.NewReader(payload)
	handler := Handler(func(b []byte) ([]byte, error) { return b, nil })
	run := func() {
		src.Reset(payload)
		buf := getBodyBuf()
		if _, err := buf.ReadFrom(src); err != nil {
			t.Fatal(err)
		}
		out, err := handler(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		io.Discard.Write(out)
		putBodyBuf(buf)
	}
	run() // warm the pool to steady state
	allocs := testing.AllocsPerRun(100, run)
	if allocs >= 1 {
		t.Fatalf("bytes shim allocates %.1f objects per request; the pooled path must stay at 0", allocs)
	}
}

// Concurrent multi-megabyte streams must coexist with controller
// prewarm/retire ticks and the janitor: run under -race, the detector
// does the heavy lifting; the assertions check integrity under churn.
func TestConcurrentLargeStreamsDuringControl(t *testing.T) {
	g, clk, _ := startControlled(t,
		PoolConfig{NewPredictor: naiveFactory, IdleTTL: time.Minute, MaxIdlePerFunction: 2},
		Function{Name: "big", Stream: streamEcho})

	const size = 1 << 20
	payload := patternedPayload(size)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("POST", "/function/big", bytes.NewReader(payload))
				rec := &discardResponseWriter{}
				g.handle(rec, req)
				if rec.status != http.StatusOK || rec.n != size {
					bad.Add(1)
					return
				}
			}
		}()
	}
	// Controller and janitor churn the warm pool while streams fly.
	for i := 0; i < 40; i++ {
		g.controlOnce("big", clk.Advance(50*time.Millisecond))
		g.janitorOnce(clk.Now())
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d large streams failed or truncated during control churn", n)
	}
}
