package hop

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// exchange runs one request over a fresh connection to a peer that
// answers reply once; it returns the bytes the peer read and the
// response's body.
func exchange(t *testing.T, head Head, body string, reply string) (sent string, got string, c *Conn) {
	t.Helper()
	client, peer := net.Pipe()
	read := make(chan string, 1)
	go func() {
		var raw strings.Builder
		req, err := http.ReadRequest(bufio.NewReader(io.TeeReader(peer, &raw)))
		if err != nil {
			read <- "unparsable: " + err.Error()
			return
		}
		io.Copy(io.Discard, req.Body)
		io.WriteString(peer, reply)
		read <- raw.String()
	}()
	c = New(client, "node:1")
	t.Cleanup(c.Close)
	resp, err := c.RoundTrip(context.Background(), head, strings.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return <-read, string(b), c
}

// goldenRequest is what TestHeadForwardsEndToEndHeadersOnly's head
// goes out as.
const goldenRequest = "PUT /function/f HTTP/1.1\r\nHost: node:1\r\nX-Hotc-Tenant: acme\r\n" +
	"Traceparent: 00-new\r\nContent-Length: 4\r\n\r\nbody"

// The head carries the forwarded header minus what is the hop's own or
// stops at a hop; a traceparent in Head replaces the header's.
func TestHeadForwardsEndToEndHeadersOnly(t *testing.T) {
	head := Head{Method: http.MethodPut, Path: "/function/f", Traceparent: "00-new", Header: http.Header{
		"X-Hotc-Tenant":     {"acme"},
		"Connection":        {"keep-alive, X-Private"},
		"X-Private":         {"secret"},
		"Keep-Alive":        {"timeout=5"},
		"Proxy-Connection":  {"keep-alive"},
		"Te":                {"trailers"},
		"Trailer":           {"X-T"},
		"Transfer-Encoding": {"chunked"},
		"Upgrade":           {"websocket"},
		"Expect":            {"100-continue"},
		"Host":              {"elsewhere"},
		"Content-Length":    {"99"},
		"Traceparent":       {"00-old"},
		"X-Split":           {"a\r\nX-Smuggled: 1"},
		"Bad Name":          {"x"},
	}}
	sent, got, c := exchange(t, head, "body", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	if sent != goldenRequest {
		t.Errorf("the peer read\n%q\nwant\n%q", sent, goldenRequest)
	}
	if got != "ok" || !c.Finish() {
		t.Errorf("body %q: a clean exchange must leave the connection reusable", got)
	}
}

// A reply to HEAD has no body whatever its Content-Length says: the
// exchange ends at the head and the connection stays reusable.
func TestHeadReplyHasNoBody(t *testing.T) {
	head := Head{Method: http.MethodHead, Path: "/"}
	_, got, c := exchange(t, head, "", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n")
	if got != "" || !c.Finish() {
		t.Fatalf("HEAD: body %q; want none, and a reusable connection", got)
	}
}

// A peer that closed the connection before answering leaves the
// failure marked unanswered; one that answered half a head does not.
func TestUnansweredMarksOnlyFailuresBeforeAnyByte(t *testing.T) {
	for _, tc := range []struct {
		reply string
		want  bool
	}{
		{"", true},
		{"HTTP/1.1 200 OK\r\nContent-Le", false},
	} {
		client, peer := net.Pipe()
		go func() {
			http.ReadRequest(bufio.NewReader(peer))
			io.WriteString(peer, tc.reply)
			peer.Close()
		}()
		c := New(client, "node:1")
		_, err := c.RoundTrip(context.Background(), Head{Method: http.MethodPost, Path: "/"}, strings.NewReader("x"), 1)
		if err == nil || Unanswered(err) != tc.want {
			t.Errorf("reply %q: error %v, Unanswered %v; want an error, Unanswered %v", tc.reply, err, Unanswered(err), tc.want)
		}
		if !c.settled() {
			t.Errorf("reply %q: a failed exchange left its body writer running", tc.reply)
		}
	}
}

// A method, path or host that would break the request line or the Host
// field is refused before a byte is sent, and the connection is closed.
func TestRoundTripRefusesUnwritableHead(t *testing.T) {
	for _, tc := range []struct {
		method, path, host string
	}{
		{"POST", "/function/x\r\nX-Evil: 1\r\n\r\nGET /function/y", "node:1"},
		{"POST", "/function/a b", "node:1"},
		{"POST", "/function/\x00", "node:1"},
		{"POST", "/function/caf\xc3\xa9", "node:1"},
		{"POST", "", "node:1"},
		{"GET /x HTTP/1.1\r\n", "/", "node:1"},
		{"", "/", "node:1"},
		{"POST", "/", "node:1\r\nX-Evil: 1"},
		{"POST", "/", ""},
	} {
		client, peer := net.Pipe()
		read := make(chan int, 1)
		go func() {
			n, _ := io.Copy(io.Discard, peer)
			read <- int(n)
		}()
		c := New(client, tc.host)
		_, err := c.RoundTrip(context.Background(), Head{Method: tc.method, Path: tc.path}, strings.NewReader("x"), 1)
		if err != errInvalidHead {
			t.Errorf("%q %q host %q: error %v, want errInvalidHead", tc.method, tc.path, tc.host, err)
		}
		if n := <-read; n != 0 {
			t.Errorf("%q %q host %q: the peer read %d bytes, want none and a closed connection", tc.method, tc.path, tc.host, n)
		}
	}
}

// scriptedConn answers every request with reply and keeps what it is
// sent; its deadlines are no-ops, so nothing but RoundTrip itself can
// keep a request off the wire.
type scriptedConn struct {
	net.Conn
	reply  *strings.Reader
	sent   bytes.Buffer
	closed bool
}

func (c *scriptedConn) Read(p []byte) (int, error)       { return c.reply.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error)      { return c.sent.Write(p) }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }
func (c *scriptedConn) Close() error                     { c.closed = true; return nil }

// An exchange whose context has already ended sends nothing, however
// fast the peer would have answered: the caller gave up first.
func TestPreCanceledExchangeSendsNothing(t *testing.T) {
	conn := &scriptedConn{reply: strings.NewReader("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(conn, "node:1").RoundTrip(ctx, Head{Method: http.MethodPost, Path: "/"}, strings.NewReader("x"), 1)
	if err != context.Canceled {
		t.Errorf("error %v, want context.Canceled", err)
	}
	if conn.sent.Len() != 0 {
		t.Errorf("sent %q, want nothing", conn.sent.String())
	}
}

// Interim 1xx replies are read past to the final one, as net/http's
// Transport reads them, and the connection is kept; a 101 and a sixth
// interim reply are refused with the connection closed.
func TestInterimRepliesAreSkipped(t *testing.T) {
	const final = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	for _, tc := range []struct {
		reply string
		ok    bool
	}{
		{"HTTP/1.1 100 Continue\r\n\r\n" + final, true},
		{"HTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\n" + final, true},
		{strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", 5) + final, true},
		{strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", 6) + final, false},
		{"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\r\n", false},
	} {
		conn := &scriptedConn{reply: strings.NewReader(tc.reply)}
		c := New(conn, "node:1")
		resp, err := c.RoundTrip(context.Background(), Head{Method: http.MethodPost, Path: "/"}, strings.NewReader("x"), 1)
		if !tc.ok {
			if err == nil || !conn.closed {
				t.Errorf("%q: error %v, closed %v; want a refusal that closes", tc.reply, err, conn.closed)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.reply, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(body) != "ok" || err != nil || resp.Header.Get("Link") != "" {
			t.Errorf("%q: status %d, body %q (%v), fields %v; want 200 ok and the final head's fields", tc.reply, resp.StatusCode, body, err, resp.Header)
		}
		if !c.Finish() {
			t.Errorf("%q: the connection was not kept", tc.reply)
		}
	}
}

// However a streamed exchange ends, its body writer has ended with it
// and its result has been read: a peer that answers while reading, and
// one that answers without reading a byte of the body.
func TestStreamedExchangeEndsSettled(t *testing.T) {
	for _, deaf := range []bool{false, true} {
		client, peer := net.Pipe()
		go func() {
			defer peer.Close()
			br := bufio.NewReader(peer)
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			if !deaf {
				io.Copy(io.Discard, req.Body)
			}
			io.WriteString(peer, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
			if deaf {
				return
			}
			http.ReadRequest(br)
		}()
		c := New(client, "node:1")
		body := strings.Repeat("b", 3*BufSize) // too long to ride behind the head
		resp, err := c.RoundTrip(context.Background(), Head{Method: http.MethodPost, Path: "/"}, strings.NewReader(body), -1)
		if err != nil {
			t.Fatalf("deaf=%v: %v", deaf, err)
		}
		io.Copy(io.Discard, resp.Body)
		if reusable := c.Finish(); reusable == deaf {
			t.Errorf("deaf=%v: Finish = %v", deaf, reusable)
		}
		if !c.settled() {
			t.Errorf("deaf=%v: the exchange ended with its body writer unaccounted for", deaf)
		}
		c.Close()
	}
}

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// A 1 MiB body of known length goes out in BufSize chunks: the head
// and the first chunk fill the write buffer once and the rest of that
// chunk bypasses it, so 8 chunks cost 9 writes (32 KiB chunks cost 32).
func TestRoundTripWritesWholeChunks(t *testing.T) {
	client, peer := net.Pipe()
	go func() {
		req, err := http.ReadRequest(bufio.NewReader(peer))
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		io.WriteString(peer, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	}()
	counted := &countingConn{Conn: client}
	c := New(counted, "node:1")
	t.Cleanup(c.Close)
	body := make([]byte, 1<<20)
	resp, err := c.RoundTrip(context.Background(), Head{Method: http.MethodPost, Path: "/"}, bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	if !c.Finish() {
		t.Fatal("a clean exchange must leave the connection reusable")
	}
	if n := counted.writes.Load(); n > 9 {
		t.Errorf("a 1 MiB body took %d writes, want at most 9", n)
	}
}

// writeCounter discards what it is given and counts the calls.
type writeCounter int

func (w *writeCounter) Write(p []byte) (int, error) {
	*w++
	return len(p), nil
}

// Copy moves 1 MiB in 8 BufSize writes, delegating to neither end, and
// once the pool is warm it allocates nothing.
func TestCopyWholeChunksZeroAlloc(t *testing.T) {
	payload := make([]byte, 1<<20)
	src := bytes.NewReader(payload)
	var w writeCounter
	if n, err := Copy(&w, src); err != nil || n != int64(len(payload)) {
		t.Fatalf("copied %d bytes, err %v; want %d", n, err, len(payload))
	}
	if w > 8 {
		t.Errorf("1 MiB took %d writes, want at most 8", w)
	}
	if raceEnabled {
		return // the race detector's instrumentation perturbs AllocsPerRun
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(payload)
		if _, err := Copy(&w, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Copy allocates %.1f objects per copy, want 0", allocs)
	}
}

// FuzzConnReply feeds arbitrary bytes to a Conn as the reply to a GET.
// A reply the Conn takes, its head in RoundTrip and its body read whole,
// is the one net/http's ReadResponse reads from the same bytes: the same
// status, header fields, body and trailers. Any other it refuses, and a
// refused exchange closes the connection, as does one net/http would
// close: Finish never calls either reusable.
func FuzzConnReply(f *testing.F) {
	for _, reply := range []string{
		// FuzzHopExchange's replies.
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nno thanks",
		"HTTP/1.1 200 OK\r\nContent-Le",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\nX-Hotc-Span-Func-Done: 7\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		// TestCutRelayReachesTheClientCut's cut chunk.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1000\r\n" + strings.Repeat("x", 4<<10) + "\r\n",
		// Two lengths, both framings, a bad chunk size.
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok!",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2x\r\nok\r\n0\r\n\r\n",
		// A chunked HTTP/1.0 reply, whose body net/http reads raw.
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		// Interim replies: one before the final, one too many, an upgrade.
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		strings.Repeat("HTTP/1.1 102 Processing\r\n\r\n", 6) + "HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n",
	} {
		f.Add([]byte(reply))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		conn := &scriptedConn{reply: strings.NewReader(string(reply))}
		c := New(conn, "node:1")
		resp, err := c.RoundTrip(context.Background(), Head{Method: http.MethodGet, Path: "/"}, http.NoBody, 0)
		if err != nil {
			if !conn.closed {
				t.Fatalf("RoundTrip refused %q (%v) and left the connection open", reply, err)
			}
			return
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			if c.Finish() || !conn.closed {
				t.Fatalf("the body of %q failed (%v), yet the connection was kept", reply, err)
			}
			return
		}
		// The oracle reads past interim 1xx heads as net/http's Transport
		// does, at most five of them; a 101 is an upgrade the hop refuses.
		br := bufio.NewReader(bytes.NewReader(reply))
		var want *http.Response
		for interim := 0; ; interim++ {
			want, err = http.ReadResponse(br, &http.Request{Method: http.MethodGet})
			if err != nil || want.StatusCode >= 200 {
				break
			}
			if want.StatusCode == http.StatusSwitchingProtocols || interim == 5 {
				err = fmt.Errorf("status %d after %d interim replies", want.StatusCode, interim)
				break
			}
		}
		var wantBody []byte
		if err == nil {
			wantBody, err = io.ReadAll(want.Body)
		}
		if err != nil {
			t.Fatalf("the Conn took %q, which net/http refuses: %v", reply, err)
		}
		// net/http keeps one of two equal Content-Lengths, moves a
		// chunked reply's Trailer field into the keys of Trailer, turns a
		// Connection: close into Close and a Pragma: no-cache into a
		// Cache-Control too.
		fields := func(h http.Header) http.Header {
			h = h.Clone()
			for _, k := range []string{"Content-Length", "Trailer", "Connection"} {
				delete(h, k)
			}
			if p := h["Pragma"]; len(p) > 0 && p[0] == "no-cache" && h["Cache-Control"] == nil {
				h["Cache-Control"] = []string{"no-cache"}
			}
			return h
		}
		sent := func(h http.Header) http.Header {
			out := http.Header{}
			for k, vs := range h {
				if len(vs) > 0 {
					out[k] = vs
				}
			}
			return out
		}
		switch {
		case resp.StatusCode != want.StatusCode || resp.Status != want.Status:
			t.Fatalf("%q: status %d %q, net/http reads %d %q", reply, resp.StatusCode, resp.Status, want.StatusCode, want.Status)
		case resp.ContentLength != want.ContentLength || !reflect.DeepEqual(fields(resp.Header), fields(want.Header)):
			t.Fatalf("%q: length %d and fields %v, net/http reads %d and %v", reply, resp.ContentLength, resp.Header, want.ContentLength, want.Header)
		case !bytes.Equal(body, wantBody):
			t.Fatalf("%q: body %q, net/http reads %q", reply, body, wantBody)
		case !reflect.DeepEqual(sent(resp.Trailer), sent(want.Trailer)):
			t.Fatalf("%q: trailers %v, net/http reads %v", reply, resp.Trailer, want.Trailer)
		}
		if c.Finish() && want.Close {
			t.Fatalf("%q: the connection was kept after a reply net/http closes it on", reply)
		}
	})
}
