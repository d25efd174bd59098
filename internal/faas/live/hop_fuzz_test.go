package live

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// zeros is an endless request body that costs no memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// How the scripted watchdog and the request misbehave, as fuzz flags.
const (
	hopFuzzChunked = 1 << iota // the request goes out chunked, its length unknown
	hopFuzzDeaf                // the watchdog replies without reading the request, then reads nothing more
	hopFuzzHangUp              // the watchdog closes once its reply is written
	hopFuzzShort               // the request body ends at half its declared length
)

// hopFuzzOK is a well-formed reply; the scripted watchdog also answers
// every request after the first with it.
const hopFuzzOK = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"

// scriptedWatchdog serves one connection: the first request is answered
// with reply as flags say, later ones with hopFuzzOK. A deaf watchdog
// that does not hang up holds the connection until release.
func scriptedWatchdog(conn net.Conn, reply []byte, flags uint8, release <-chan struct{}) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for first := true; ; first = false {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if first && flags&hopFuzzDeaf != 0 {
			conn.Write(reply)
			if flags&hopFuzzHangUp == 0 {
				<-release
			}
			return
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return
		}
		if !first {
			reply = []byte(hopFuzzOK)
		}
		if conn.Write(reply); first && flags&hopFuzzHangUp != 0 {
			return
		}
	}
}

// FuzzHopExchange drives the hop the way proxy does — roundTrip, copy the
// response, then exactly one of finish or abort — against a watchdog
// whose first reply is the fuzz input, and a second, plain exchange when
// the hop calls its connection reusable. Whatever the bytes: the
// exchange returns within its deadline; once it has ended no body writer
// runs and the request's context no longer reaches the connection; a
// connection that is not reusable is closed, and one that is — what a
// re-pooled instance would hold — is open with no deadline armed on it.
func FuzzHopExchange(f *testing.F) {
	for _, seed := range []struct {
		reply  string
		bodyKB uint16
		flags  uint8
	}{
		{hopFuzzOK, 0, 0},
		{hopFuzzOK, 64, 0},
		{hopFuzzOK, 64, hopFuzzChunked},
		{"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nno thanks", 16 << 10, hopFuzzDeaf}, // early response
		{hopFuzzOK, 64, hopFuzzShort},                                                                                   // short body
		{hopFuzzOK, 0, hopFuzzHangUp},                                                                                   // death between requests
		{"HTTP/1.1 200 OK\r\nContent-Le", 0, hopFuzzHangUp},                                                             // truncated head
		{"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok", 0, 0},                                                       // wrong Content-Length
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", 0, hopFuzzHangUp},                              // mid-chunk close
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\nX-Hotc-Span-Func-Done: 7\r\n\r\n", 0, 0}, // undeclared trailer
		{"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 0, 0},
	} {
		f.Add([]byte(seed.reply), seed.bodyKB, seed.flags)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer lis.Close()
	g := NewGateway(true)
	defer g.Stop()
	conns := trackConns(g)

	f.Fuzz(func(t *testing.T, reply []byte, bodyKB uint16, flags uint8) {
		release, served := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(served)
			if conn, err := lis.Accept(); err == nil {
				scriptedWatchdog(conn, reply, flags, release)
			}
		}()
		open, deadlines := conns.open.Load(), conns.deadlines.Load()
		c, err := g.dialHop(context.Background(), lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			c.close()
			close(release)
			<-served
		}()

		// exchange is proxy's use of the hop, under a deadline of its own.
		exchange := func(body io.Reader, length int64) (reusable bool, got []byte) {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				resp, err := c.roundTrip(ctx, body, length, "")
				if err != nil {
					return // a failed roundTrip has already aborted
				}
				var buf bytes.Buffer
				src := readTracker{r: resp.Body}
				if _, err := copyPooled(&buf, &src); err != nil && src.failed {
					c.abort()
					return
				}
				drainClose(resp.Body)
				reusable, got = c.finish(), buf.Bytes()
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("the exchange outlived its 150ms deadline by seconds (reply %q, %d KiB, flags %04b)", reply, bodyKB, flags)
			}
			if c.streaming || len(c.wdone) != 0 {
				t.Fatalf("the exchange ended with its body writer unaccounted for (streaming=%v, %d results unread)", c.streaming, len(c.wdone))
			}
			want := open
			if reusable {
				want++
			}
			if got := conns.open.Load(); got != want {
				t.Fatalf("reusable=%v with %d connections open, want %d", reusable, got-open, want-open)
			}
			cancel()
			time.Sleep(time.Millisecond) // a hook still attached would fire now
			if reusable && conns.deadlines.Load() != deadlines {
				t.Fatal("a reusable connection has a deadline armed: the request's context still reaches it")
			}
			return reusable, got
		}

		length := int64(min(bodyKB, 16<<10)) << 10 // up to 16 MiB
		var body io.Reader = io.LimitReader(zeros{}, length)
		switch {
		case flags&hopFuzzShort != 0:
			body = io.LimitReader(zeros{}, length/2)
		case flags&hopFuzzChunked != 0:
			length = -1
		}
		reusable, got := exchange(body, length)
		plain := string(reply) == hopFuzzOK && flags&^hopFuzzChunked == 0
		if plain && (!reusable || string(got) != "ok") {
			t.Fatalf("a clean exchange: reusable=%v, body %q", reusable, got)
		}
		if reusable {
			again, got := exchange(bytes.NewReader([]byte("x")), 1)
			if plain && (!again || string(got) != "ok") {
				t.Fatalf("the exchange after a clean one: reusable=%v, body %q", again, got)
			}
		}
	})
}
