package hop

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptConn is a connection whose peer sent in and closed its side;
// what the server writes collects in out.
type scriptConn struct {
	net.Conn // nil: a server calls only the methods below
	in       io.Reader
	out      bytes.Buffer
	writes   int
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}
func (c *scriptConn) Close() error                    { return nil }
func (c *scriptConn) RemoteAddr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// seen is one request as a handler saw it.
type seen struct {
	method, uri, host string
	header            http.Header
	length            int64
	body              string
	err               error
}

// recorder serves every request with reply, after reading the body
// unless deaf, and records what it saw.
type recorder struct {
	seen  []seen
	deaf  bool
	reply func(w http.ResponseWriter, r *http.Request, s seen)
}

func (rec *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := seen{method: r.Method, uri: r.RequestURI, host: r.Host, header: r.Header.Clone(), length: r.ContentLength}
	if !rec.deaf {
		b, err := io.ReadAll(r.Body)
		s.body, s.err = string(b), err
	}
	rec.seen = append(rec.seen, s)
	if rec.reply != nil {
		rec.reply(w, r, s)
		return
	}
	switch {
	case errors.As(s.err, new(*http.MaxBytesError)):
		http.Error(w, s.err.Error(), http.StatusRequestEntityTooLarge)
	case s.err != nil:
		http.Error(w, s.err.Error(), http.StatusBadRequest)
	default:
		io.WriteString(w, s.body)
	}
}

// serveScript serves in and returns the connection the server wrote to.
func serveScript(t *testing.T, in string, h http.Handler, maxBody int64) *scriptConn {
	t.Helper()
	return serveScriptAs(t, in, h, maxBody, false)
}

// serveScriptAs is serveScript in either role: a watchdog's, or a
// front door's.
func serveScriptAs(t *testing.T, in string, h http.Handler, maxBody int64, front bool) *scriptConn {
	t.Helper()
	return serveReader(t, strings.NewReader(in), h, maxBody, front)
}

// serveReader serves what in reads, each Read of it arriving as one.
func serveReader(t *testing.T, in io.Reader, h http.Handler, maxBody int64, front bool) *scriptConn {
	t.Helper()
	return serveBy(t, owner(maxBody, front), in, h)
}

// owner is a Server in the role, under the body limit, that serves no
// listener: the tests hand it connections.
func owner(maxBody int64, front bool) *Server {
	srv := &Server{Front: front}
	srv.LimitBodies(maxBody)
	return srv
}

// serveBy serves what in reads as one of srv's connections.
func serveBy(t *testing.T, srv *Server, in io.Reader, h http.Handler) *scriptConn {
	t.Helper()
	c := &scriptConn{in: in}
	done := make(chan struct{})
	go func() {
		defer close(done)
		newServer(c, srv).run(h)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("the server did not return on %v", in)
	}
	return c
}

// replies parses what a server wrote, each reply answering a request
// of the given method, skipping interim 1xx replies.
func replies(t *testing.T, out []byte, methods ...string) []*http.Response {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(out))
	var got []*http.Response
	for _, m := range methods {
		resp, err := http.ReadResponse(br, &http.Request{Method: m})
		for err == nil && resp.StatusCode < 200 {
			resp, err = http.ReadResponse(br, &http.Request{Method: m})
		}
		if err != nil {
			t.Fatalf("reply %d: %v in %q", len(got), err, out)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reply %d body: %v in %q", len(got), err, out)
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		got = append(got, resp)
	}
	if rest, _ := io.ReadAll(br); len(rest) > 0 {
		t.Fatalf("%q written past %d replies", rest, len(methods))
	}
	return got
}

func body(resp *http.Response) string {
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// plain is a request any server serves.
const plain = "GET /next HTTP/1.1\r\nHost: h\r\n\r\n"

// Each way a head could be framed twice, or read differently by another
// parser, is refused in either role with a status and a close, unserved,
// and nothing after it on the connection is served either; the server's
// refusal hook hears its reason once. A served head reaches no hook.
func TestServeRefusesAmbiguousHeads(t *testing.T) {
	for _, front := range []bool{false, true} {
		var heard []string
		srv := owner(0, front)
		srv.OnRefusal(func(reason string) { heard = append(heard, reason) })
		for _, tc := range refusals {
			heard = nil
			rec := &recorder{}
			c := serveBy(t, srv, strings.NewReader(tc.head+plain), rec)
			got := replies(t, c.out.Bytes(), "POST")
			if got[0].StatusCode != tc.status || !got[0].Close {
				t.Errorf("%s: status %d, close %v; want %d and a close", tc.name, got[0].StatusCode, got[0].Close, tc.status)
			}
			if len(rec.seen) != 0 {
				t.Errorf("%s: the handler served %+v", tc.name, rec.seen)
			}
			if len(heard) != 1 || heard[0] != tc.reason {
				t.Errorf("%s (front %v): the hook heard %q, want [%s]", tc.name, front, heard, tc.reason)
			}
		}
		heard = nil
		serveBy(t, srv, strings.NewReader(goldenRequest+plain), &recorder{})
		if len(heard) != 0 {
			t.Errorf("front %v: served heads reached the refusal hook: %q", front, heard)
		}
	}
}

// refusals are the heads a server refuses, with the status it answers
// and the reason its refusal hook hears; FuzzServe seeds from them.
var refusals = []struct {
	name, head string
	status     int
	reason     string
}{
	{"length and chunked", "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 400, "both_framings"},
	{"two lengths", "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nabcdef", 400, "two_lengths"},
	{"gzip", "POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n", 501, "coding"},
	{"chunked HTTP/1.0", "POST / HTTP/1.0\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", 400, "chunked_http10"},
	{"obs-fold", "POST / HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n Content-Length: 3\r\n\r\nabc", 400, "malformed"},
	{"control byte", "POST / HTTP/1.1\r\nHost: h\r\nX-A: a\x01b\r\n\r\n", 400, "malformed"},
	{"bad length", "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: +5\r\n\r\nabcde", 400, "malformed"},
	{"no host", "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 400, "host"},
	{"two hosts", "POST / HTTP/1.1\r\nHost: h\r\nHost: i\r\n\r\n", 400, "host"},
	{"head over 1 MiB", "POST / HTTP/1.1\r\nHost: h\r\nX-Big: " + strings.Repeat("a", maxHead) + "\r\n\r\n", 431, "head_too_large"},
	{"expect", "POST / HTTP/1.1\r\nHost: h\r\nExpect: 200-ok\r\nContent-Length: 1\r\n\r\nx", 417, "expect"},
}

// The hop's golden request is served as written, and the keep-alive
// connection carries the next request.
func TestServeReadsWhatConnWrites(t *testing.T) {
	rec := &recorder{}
	c := serveScript(t, goldenRequest+plain, rec, 0)
	got := replies(t, c.out.Bytes(), "PUT", "GET")
	if len(rec.seen) != 2 {
		t.Fatalf("served %d requests, want 2", len(rec.seen))
	}
	s := rec.seen[0]
	if s.method != "PUT" || s.uri != "/function/f" || s.host != "node:1" || s.body != "body" || s.length != 4 ||
		s.header.Get("X-Hotc-Tenant") != "acme" || s.header.Get("Traceparent") != "00-new" {
		t.Errorf("the handler saw %+v", s)
	}
	if body(got[0]) != "body" || got[0].ContentLength != 4 || got[0].Close {
		t.Errorf("reply %+v", got[0])
	}
}

// A peer that asks for 100 Continue gets it once the handler reads, and
// only then; a handler that never reads answers with a close.
func TestServeAnswersExpectContinue(t *testing.T) {
	const req = "POST / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nbody"
	c := serveScript(t, req, &recorder{}, 0)
	if out := c.out.String(); !strings.HasPrefix(out, "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n") {
		t.Fatalf("wrote %q", out)
	}
	c = serveScript(t, req+plain, &recorder{deaf: true}, 0)
	if out := c.out.String(); strings.Contains(out, "100 Continue") {
		t.Fatalf("a handler that never read got the body asked for: %q", out)
	}
	if got := replies(t, c.out.Bytes(), "POST"); !got[0].Close {
		t.Fatal("a body never asked for leaves the connection open")
	}
}

// A body past the limit fails the handler's read with
// *http.MaxBytesError and the connection closes after the reply, which
// says so.
func TestServeEnforcesBodyLimit(t *testing.T) {
	for _, req := range []string{
		"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 8\r\n\r\n12345678",
		"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n8\r\n12345678\r\n0\r\n\r\n",
	} {
		rec := &recorder{}
		c := serveScript(t, req+plain, rec, 4)
		var mbe *http.MaxBytesError
		if len(rec.seen) != 1 || !errors.As(rec.seen[0].err, &mbe) || mbe.Limit != 4 {
			t.Fatalf("the handler saw %+v, want one read failing with *http.MaxBytesError", rec.seen)
		}
		if got := replies(t, c.out.Bytes(), "POST"); got[0].StatusCode != 413 || !got[0].Close {
			t.Errorf("reply %d, close %v; want 413 and a close", got[0].StatusCode, got[0].Close)
		}
	}
}

// Whatever a handler leaves of its body, of either framing, is read to
// the message boundary: the next request on the connection is served.
// One that cannot be read (here it ends early) closes the connection,
// and the reply the server still holds says so.
func TestServeReadsLeftoverBody(t *testing.T) {
	for _, req := range []string{
		"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 70000\r\n\r\n" + strings.Repeat("x", 70000),
		"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n4000\r\n" + strings.Repeat("x", 0x4000) + "\r\n2;ext=1\r\nab\r\n0\r\nX-T: 1\r\n\r\n",
	} {
		rec := &recorder{deaf: true}
		c := serveScript(t, req+plain, rec, 0)
		if len(rec.seen) != 2 || rec.seen[1].uri != "/next" {
			t.Fatalf("served %+v, want the request after the unread body", rec.seen)
		}
		replies(t, c.out.Bytes(), "POST", "GET")
	}
	rec := &recorder{deaf: true}
	c := serveScript(t, "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nshort", rec, 0)
	if got := replies(t, c.out.Bytes(), "POST"); !got[0].Close {
		t.Fatal("a body that could not be read to its end left the connection open")
	}
}

// The reply is framed as net/http's server frames it: a reply with no
// declared length that ends within 2 KiB gets a Content-Length, a longer
// one is chunked and carries the trailers it declares. Unlike
// net/http's, a short reply that declares trailers is not chunked for
// them: they go in its head. Nothing is sniffed.
func TestServeFramesRepliesLikeNetHTTP(t *testing.T) {
	withTrailer := func(n int) func(w http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			w.Header().Set("Trailer", "X-Done")
			io.WriteString(w, strings.Repeat("t", n))
			w.Header().Set("X-Done", "7")
		}
	}
	for _, tc := range []struct {
		name          string
		reply         func(w http.ResponseWriter)
		length        int64
		head, trailer string // X-Done's value in each
	}{
		{"short", func(w http.ResponseWriter) { io.WriteString(w, "<html>hi</html>") }, 15, "", ""},
		{"empty", func(w http.ResponseWriter) {}, 0, "", ""},
		{"declared", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "5000")
			io.WriteString(w, strings.Repeat("d", 5000))
		}, 5000, "", ""},
		{"long", func(w http.ResponseWriter) { io.WriteString(w, strings.Repeat("l", 5000)) }, -1, "", ""},
		{"long with trailers", withTrailer(5000), -1, "", "7"},
		{"short with trailers", withTrailer(1), 1, "7", ""},
	} {
		rec := &recorder{reply: func(w http.ResponseWriter, _ *http.Request, _ seen) { tc.reply(w) }}
		c := serveScript(t, plain+plain, rec, 0)
		got := replies(t, c.out.Bytes(), "GET", "GET")[0]
		if got.ContentLength != tc.length || got.Header.Get("X-Done") != tc.head || got.Trailer.Get("X-Done") != tc.trailer || got.Close {
			t.Errorf("%s: length %d, X-Done %q in the head and %q in the trailer, close %v; want %d, %q, %q, keep-alive",
				tc.name, got.ContentLength, got.Header.Get("X-Done"), got.Trailer.Get("X-Done"), got.Close, tc.length, tc.head, tc.trailer)
		}
		if ct := got.Header.Get("Content-Type"); ct != "" {
			t.Errorf("%s: Content-Type %q was sniffed", tc.name, ct)
		}
	}
}

// An io.Copy into the reply runs through ReadFrom and hop.Copy's chunks:
// 1 MiB chunked costs two writes a chunk, not the four of net/http's
// 32 KiB ones.
func TestServeWriterReadsFromInChunks(t *testing.T) {
	rec := &recorder{reply: func(w http.ResponseWriter, _ *http.Request, _ seen) {
		io.Copy(w, struct{ io.Reader }{bytes.NewReader(make([]byte, 1<<20))}) // no WriterTo
	}}
	c := serveScript(t, plain, rec, 0)
	if got := replies(t, c.out.Bytes(), "GET")[0]; len(body(got)) != 1<<20 {
		t.Fatal("the reply lost bytes")
	}
	if c.writes > 17 {
		t.Errorf("1 MiB took %d writes, want at most 17", c.writes)
	}
}

// Committed tells a handler whether any byte of its reply's body has
// been written, held back or not; other writers never are.
func TestServeCommitted(t *testing.T) {
	var before, after bool
	serveScript(t, plain, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		before = Committed(w)
		io.WriteString(w, "x")
		after = Committed(w)
	}), 0)
	if before || !after {
		t.Errorf("Committed before a write %v, after %v; want false, true", before, after)
	}
	if Committed(httptest.NewRecorder()) {
		t.Error("a writer the server did not hand out reports committed")
	}
}

// Retract takes back a reply held back before its head, header fields
// kept, so another status can answer; once the head is out it cannot.
func TestServeRetract(t *testing.T) {
	c := serveScript(t, plain, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Kept", "1")
		io.WriteString(w, "partial")
		if !Retract(w) {
			t.Error("a reply held back before its head could not be taken back")
		}
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, "refused")
	}), 0)
	if out := c.out.String(); !strings.HasPrefix(out, "HTTP/1.1 502 ") || !strings.Contains(out, "X-Kept: 1\r\n") ||
		!strings.HasSuffix(out, "\r\n\r\nrefused") {
		t.Errorf("retracted reply = %q, want a 502 with X-Kept and only the second body", out)
	}
	serveScript(t, plain, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 3*pendingSize)) // past what is held back: the head goes out
		if Retract(w) {
			t.Error("a reply whose head is out was taken back")
		}
	}), 0)
	if !Retract(httptest.NewRecorder()) {
		t.Error("a writer the server did not hand out is not left to its own status")
	}
}

// A handler panic closes its connection and is logged, unless the value
// is http.ErrAbortHandler.
func TestServePanicClosesConnection(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, v := range []any{"boom", http.ErrAbortHandler} {
		logged.Reset()
		served := 0
		c := serveScript(t, plain+plain, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			served++
			panic(v)
		}), 0)
		if served != 1 || c.out.Len() != 0 {
			t.Errorf("%v: served %d, wrote %q; want one request and nothing written", v, served, c.out.String())
		}
		if strings.Contains(logged.String(), "panic serving") != (v != http.ErrAbortHandler) {
			t.Errorf("%v: logged %q", v, logged.String())
		}
	}
}

// Within a chunk the reader fills the caller's buffer, and it carries
// on across chunks whose size line is already buffered, as net/http's
// does.
func TestChunkedBodyFillsBuffer(t *testing.T) {
	var b chunkedBody
	var raw []byte
	var trailer http.Header
	b.reset(bufio.NewReader(strings.NewReader("3\r\nabc\r\n3\r\ndef\r\n0\r\nX-T: 1\r\n\r\n")), &trailer, &raw)
	p := make([]byte, 16)
	n, err := b.Read(p)
	if string(p[:n]) != "abcdef" {
		t.Fatalf("one read returned %q, %v; want both chunks", p[:n], err)
	}
	if n, err = b.Read(p); n != 0 || err != io.EOF || trailer.Get("X-T") != "1" {
		t.Fatalf("then %d, %v with trailer %v; want EOF and the trailer", n, err, trailer)
	}
}

// What one warm exchange between a Conn and a Server allocates on both
// ends together, in this process: the request head parsed on one side,
// the response head on the other, and the context hook.
func TestExchangeAllocBudget(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if conn, err := lis.Accept(); err == nil {
			newServer(conn, owner(1<<20, false)).run(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { Copy(w, r.Body) }))
		}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := New(conn, lis.Addr().String())
	payload := bytes.Repeat([]byte("p"), 64)
	src := bytes.NewReader(payload)
	head := Head{Method: http.MethodPost, Path: "/", Header: http.Header{"Content-Type": {"application/octet-stream"}}}
	ctx := context.Background()
	exchange := func() {
		src.Reset(payload)
		resp, err := c.RoundTrip(ctx, head, src, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := Copy(io.Discard, resp.Body); err != nil || n != 64 || resp.ContentLength != 64 {
			t.Fatalf("echo: %d bytes, length %d, %v", n, resp.ContentLength, err)
		}
		if !c.Finish() {
			t.Fatal("connection not reusable after a clean exchange")
		}
	}
	exchange()
	if !raceEnabled {
		const budget = 10
		if allocs := testing.AllocsPerRun(200, exchange); allocs > budget {
			t.Errorf("one warm exchange allocates %.0f objects on both ends, budget %d", allocs, budget)
		}
	}
	c.Close()
	wg.Wait()
}

// FuzzServe feeds arbitrary bytes to a server as what a peer sent
// before closing. Whatever they are, it returns, never panics, and writes
// replies net/http can read; and it never serves a request net/http's
// own parser would not read at the same place, with the same method,
// target and body: every message boundary it finds, net/http finds
// too, so no request is smuggled inside another.
func FuzzServe(f *testing.F) {
	f.Add([]byte(goldenRequest))
	f.Add([]byte(goldenRequest + plain))
	f.Add([]byte("POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n" + plain))
	f.Add([]byte("POST / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 1\r\n\r\nx"))
	for _, r := range refusals {
		if len(r.head) < 1<<10 {
			f.Add([]byte(r.head + plain))
		}
	}
	f.Add([]byte("POST / HTTP/1.1\r\nHost: h\r\nX-Big: " + strings.Repeat("a", 1<<10) + "\r\n\r\n"))
	const limit = 4 << 10
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, front := range []bool{false, true} {
			fuzzServe(t, in, limit, front)
		}
	})
}

// fuzzServe is FuzzServe's check of one role.
func fuzzServe(t *testing.T, in []byte, limit int64, front bool) {
	{
		rec := &recorder{}
		c := serveScriptAs(t, string(in), rec, limit, front)
		methods := make([]string, len(rec.seen))
		for i, s := range rec.seen {
			methods[i] = s.method
		}
		// Every served request gets a reply; a refusal may follow.
		br := bufio.NewReader(bytes.NewReader(c.out.Bytes()))
		for i, m := range methods {
			resp, err := http.ReadResponse(br, &http.Request{Method: m})
			for err == nil && resp.StatusCode < 200 {
				resp, err = http.ReadResponse(br, &http.Request{Method: m})
			}
			if err != nil {
				t.Fatalf("reply %d unreadable: %v in %q", i, err, c.out.Bytes())
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatalf("reply %d body unreadable: %v in %q", i, err, c.out.Bytes())
			}
		}
		// net/http reads the same bytes: each request Serve handed on
		// is one it reads at the same place.
		ref := bufio.NewReader(bytes.NewReader(in))
		for i, s := range rec.seen {
			req, err := http.ReadRequest(ref)
			var b []byte
			if err == nil {
				b, err = io.ReadAll(req.Body)
			}
			if err != nil {
				if i < len(rec.seen)-1 {
					t.Fatalf("served request %d (%+v) past where net/http stops: %v", i+1, rec.seen[i+1], err)
				}
				return
			}
			if req.Method != s.method || req.RequestURI != s.uri {
				t.Fatalf("request %d: served %s %s, net/http reads %s %s", i, s.method, s.uri, req.Method, req.RequestURI)
			}
			if s.err == nil && string(b) != s.body {
				t.Fatalf("request %d: served body %q, net/http reads %q", i, s.body, b)
			}
		}
	}
}

// A front door owes its client a Date and, when the handler set none, a
// Content-Type sniffed from the body, as net/http's server does; a type
// the handler set stays as it is.
func TestFrontDoorDatesAndSniffs(t *testing.T) {
	for _, tc := range []struct {
		typ, body, want string
	}{
		{"", "<html>hi</html>", "text/html; charset=utf-8"},
		{"", strings.Repeat("l", 5000), "text/plain; charset=utf-8"},
		{"application/json", "{}", "application/json"},
	} {
		c := serveScriptAs(t, plain, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.typ != "" {
				w.Header().Set("Content-Type", tc.typ)
			}
			io.WriteString(w, tc.body)
		}), 0, true)
		got := replies(t, c.out.Bytes(), "GET")[0]
		if ct := got.Header.Get("Content-Type"); ct != tc.want || body(got) != tc.body {
			t.Errorf("%q: Content-Type %q, want %q", tc.body[:2], ct, tc.want)
		}
		if _, err := http.ParseTime(got.Header.Get("Date")); err != nil {
			t.Errorf("%q: Date %q: %v", tc.body[:2], got.Header.Get("Date"), err)
		}
	}
}

// A front-door request's context ends when the client goes away once
// its body is read — here the peer closed after the request — and not
// when the client sent its next request instead, whose first byte the
// watch keeps for the next parse.
func TestFrontDoorContextEndsWithClient(t *testing.T) {
	for _, tc := range []struct {
		in    []string // what arrives, one read each
		ended bool
	}{
		{[]string{plain}, true},
		{[]string{"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody", plain}, false},
	} {
		var parts []io.Reader
		for _, p := range tc.in {
			parts = append(parts, strings.NewReader(p))
		}
		var ended []bool
		var methods []string
		c := serveReader(t, io.MultiReader(parts...), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			methods = append(methods, r.Method)
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
				ended = append(ended, true)
			case <-time.After(100 * time.Millisecond):
				ended = append(ended, false)
			}
		}), 0, true)
		if len(ended) == 0 || ended[0] != tc.ended {
			t.Errorf("%q: context ended %v, want %v first", tc.in, ended, tc.ended)
		}
		if !tc.ended && fmt.Sprint(methods) != "[POST GET]" {
			t.Errorf("served %v, want [POST GET]: the watch's byte was lost", methods)
		}
		if !tc.ended {
			replies(t, c.out.Bytes(), "POST", "GET")
		}
	}
}

// deadlineConn counts the read deadlines set on a connection: the
// disconnect watch sets two each time it runs.
type deadlineConn struct {
	net.Conn
	deadlines atomic.Int64
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// A front-door request answered within watchDelay starts no disconnect
// watch: 100 quick requests on one connection set no read deadline. A
// request still running after it is watched: its client hanging up
// ends its context well inside the handler's 20 ms.
func TestFrontDoorWatchesOnlySlowRequests(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan *deadlineConn, 1)
	ended := make(chan bool, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		c := &deadlineConn{Conn: conn}
		newServer(c, owner(0, true)).run(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/slow" {
				select {
				case <-r.Context().Done():
					ended <- true
				case <-time.After(20 * time.Millisecond):
					ended <- false
				}
			}
			io.WriteString(w, "ok")
		}))
		served <- c
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 100; i++ {
		io.WriteString(conn, "GET /quick HTTP/1.1\r\nHost: h\r\n\r\n")
		resp, err := http.ReadResponse(br, nil)
		if err != nil || body(resp) != "ok" {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	io.WriteString(conn, "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n")
	conn.Close()
	if !<-ended {
		t.Error("the client hung up, yet the slow request's context outlived its 20 ms")
	}
	c := <-served
	if n := c.deadlines.Load(); n != 2 {
		t.Errorf("%d read deadlines set, want 2: only the slow request is watched", n)
	}
}

// A timer that fired as its request ended may run its callback after
// the next request began. The callback stands for the older generation
// and must not start the newer request's watch before its own delay.
func TestStaleWatchTimerArmsNothing(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	s := newServer(a, owner(0, true))
	var ctx context.Context
	ctx, s.cancel = context.WithCancel(context.Background())
	s.timer = time.AfterFunc(time.Hour, s.expire)
	s.wmu.Lock()
	s.gen, s.settled = 2, 0 // generation 1's callback is still to run
	s.running, s.read = true, true
	s.wmu.Unlock()
	watching := func() bool {
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return s.watching
	}
	s.expire()
	if watching() {
		t.Fatal("generation 1's callback started generation 2's watch")
	}
	s.expire()
	if !watching() {
		t.Fatal("generation 2's own callback did not start its watch")
	}
	s.end()
	if ctx.Err() == nil || watching() {
		t.Fatal("end left the watch running or the context alive")
	}
}
