// Package hop is the HTTP/1.1 codec of the internal leg, both halves of
// it. Conn is one keep-alive client connection driven by its owner, one
// exchange at a time, on the owner's goroutine. Both proxy legs use it:
// the live gateway holds one per instance, to that instance's watchdog,
// and the router keeps a free list of them per node. Server is the
// other end: it accepts connections and answers the requests read from
// each with an http.Handler. Every watchdog runs one, and the gateway
// and the router each run one in the front-door role for their own
// clients. A large body read off one of their sockets and written to
// another moves in the kernel (splice.go). A connection with a
// single owner needs none of what a general-purpose client or server
// carries — idle pool, per-request goroutines and timers, MIME parsing
// for any field a peer might send — so both halves parse a head into one
// string and one value array, and a warm exchange allocates a handful of
// objects. The wire stays HTTP/1.1, so any client can talk to a Serve
// and any server can answer a Conn. The package imports only the
// standard library.
package hop

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

const (
	// BufSize is the copy chunk, the only one on the data path: every
	// body a proxy leg or a builtin moves goes through a pooled chunk
	// of this size, so a 1 MiB body costs 8 writes a leg, not the 32
	// of net/http's 32 KiB chunks. Larger chunks measured no faster
	// on a 1 MiB echo (DESIGN §13).
	BufSize = 128 << 10
	// readBufSize sizes both halves' readers: heads and chunk framing
	// go through it, body reads larger than it bypass it.
	readBufSize = 4 << 10
	// writeBufSize sizes the request writer: the head plus an inline
	// body of up to 32 KiB go out in one write. Larger bodies stream in
	// BufSize chunks that bypass it, so it need not grow with them.
	writeBufSize = 32<<10 + headRoom
	// headRoom is the write buffer's share for the request head.
	headRoom = 512
	// writerGrace is how long a finished response waits for its
	// request's body writer before giving the connection up (net/http's
	// transport allows the same 50 ms).
	writerGrace = 50 * time.Millisecond
)

// TraceparentHeader is the W3C trace-context request header.
const TraceparentHeader = "Traceparent"

// bufPool recycles the fixed-size copy chunks. It stores *[]byte so Put
// never re-boxes the slice header onto the heap.
var bufPool = sync.Pool{New: func() any { b := make([]byte, BufSize); return &b }}

// GetBuf hands out a BufSize chunk; give it back with PutBuf.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf recycles a chunk from GetBuf.
func PutBuf(bp *[]byte) { bufPool.Put(bp) }

// Copy moves src into dst. A body this package reads off a socket, going
// into a Server's reply on another, moves in the kernel (splice.go) in each
// segment larger than the reader's buffer. Anything else streams through
// a pooled chunk, one Write per Read: io.CopyBuffer without the
// WriterTo/ReaderFrom delegation, which would hand the copy to net/http's
// own 32 KiB buffers or io.Discard's 8 KiB ones, so the copy always moves
// BufSize chunks and at steady state allocates nothing whatever the
// endpoints' types. A failure reading src comes back marked for
// ReadFailed.
func Copy(dst io.Writer, src io.Reader) (written int64, err error) {
	w, _ := dst.(*response)
	b, _ := src.(wireBody)
	if w == nil || !w.splices(b) {
		b = nil
	}
	bp := GetBuf()
	buf := *bp
	for {
		p := buf
		if b != nil {
			n, serr := b.segment()
			if serr != nil {
				if serr != io.EOF {
					err = &readError{serr}
				}
				break
			}
			if n > spliceMin && w.takes(n) {
				m, serr := w.splice(b, n)
				written += m
				if serr != nil {
					err = serr
					break
				}
				continue
			}
			if n > 0 && n < int64(len(p)) {
				p = p[:n] // a segment at a time, so the next one may splice
			}
		}
		nr, rerr := src.Read(p)
		if nr > 0 {
			nw, werr := dst.Write(p[:nr])
			if nw > 0 {
				written += int64(nw)
			}
			if werr != nil {
				err = werr
				break
			}
			if nw != nr {
				err = io.ErrShortWrite
				break
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = &readError{rerr}
			}
			break
		}
	}
	PutBuf(bp)
	return written, err
}

// aLongTimeAgo is a deadline in the past: set on a connection, it
// fails every blocked and future read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// Head is what a request says before its body: the request line's
// method and path, the header to forward and, when not empty, the
// traceparent that replaces any in Header. The connection writes Host
// and the body's framing itself.
type Head struct {
	Method      string
	Path        string
	Header      http.Header
	Traceparent string
}

// Conn is one keep-alive connection. Only its owner touches it, one
// exchange at a time: RoundTrip starts an exchange and exactly one of
// Finish or Abort ends it (a failed RoundTrip has already aborted).
type Conn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	host string
	// poison fails the connection's pending and future I/O. It is what
	// the request context runs when it fires, and what the body writer
	// runs when the request's body fails under it.
	poison func()
	// wdone carries the body writer's result, one send per streamed
	// exchange.
	wdone chan error
	// bodies is the owner's body hook (OnBody).
	bodies func(copied, spliced int64)

	// Per-exchange state. resp is what RoundTrip returns, valid until
	// Finish or Abort; its Header and Trailer are new each exchange, so
	// an owner may keep them.
	detach    func() bool // stops the context hook; false = it ran
	streaming bool        // a body writer is running
	resp      http.Response
	body      respBody
	length    lengthBody
	chunked   chunkedBody
	closing   bool   // the peer said Connection: close
	raw       []byte // the response head, read before it is parsed
}

// respBody is the response body handed to the owner. It remembers reaching
// EOF — the precondition for reusing the connection — and its Close is
// a no-op: the exchange is ended by Finish or Abort.
type respBody struct {
	c   *Conn
	r   io.Reader
	eof bool
	err error // a splice that failed midway: the body lost its place
}

func (b *respBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *respBody) Close() error { return nil }

func (b *respBody) segment() (int64, error) {
	f, ok := b.r.(framer)
	if !ok || b.err != nil {
		return 0, b.err
	}
	n, err := f.segment()
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *respBody) wire() (*bufio.Reader, *net.TCPConn) {
	tc, _ := canSplice(b.c.conn)
	return b.c.br, tc
}

func (b *respBody) moved(n int64, err error) {
	b.r.(framer).skip(n)
	if err != nil {
		b.err = err
	}
}

// New wraps a dialed connection to host, the value of every request's
// Host header.
func New(conn net.Conn, host string) *Conn {
	c := &Conn{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, readBufSize),
		bw:    bufio.NewWriterSize(conn, writeBufSize),
		host:  host,
		wdone: make(chan error, 1),
	}
	c.poison = func() { conn.SetDeadline(aLongTimeAgo) }
	return c
}

// OnBody has f called, before the first RoundTrip, after each request
// body the connection sent any byte of, with the bytes sent: spliced,
// moved in the kernel from a served request's socket (a segment the
// reader already held rides along), and copied, written from user space.
func (c *Conn) OnBody(f func(copied, spliced int64)) { c.bodies = f }

// count hands a request body's bytes to the body hook.
func (c *Conn) count(copied, spliced int64) {
	if c.bodies != nil && copied+spliced > 0 {
		c.bodies(copied, spliced)
	}
}

// unanswered marks a RoundTrip failure that came before any byte of a
// response.
type unanswered struct{ err error }

func (e *unanswered) Error() string { return e.err.Error() }
func (e *unanswered) Unwrap() error { return e.err }

// Unanswered reports whether a RoundTrip failed before any byte of a
// response arrived. On a connection that sat idle that is the mark of a
// peer that closed it in the meantime: the request was not served, and
// a replayable one may go again on a fresh connection.
func Unanswered(err error) bool {
	var u *unanswered
	return errors.As(err, &u)
}

// RoundTrip sends one request — head, then body of the given length,
// negative when unknown — and returns the final response, interim 1xx
// replies skipped, with its head parsed and its body (and trailers)
// still to be read from resp.Body. The response is the connection's
// own, valid until Finish or Abort. ctx firing fails whatever I/O the
// exchange is blocked in. On error the exchange is over and the
// connection closed; the error is a *http.MaxBytesError when the body
// tripped its limit, else ctx's when ctx fired (with nothing sent when
// it had already ended), and errInvalidHead, with nothing sent, when
// the method, path or host cannot be written as they are. RoundTrip
// never retries.
func (c *Conn) RoundTrip(ctx context.Context, head Head, body io.Reader, length int64) (*http.Response, error) {
	if !wireToken(head.Method) || !wireToken(head.Path) || !wireToken(c.host) {
		c.conn.Close()
		return nil, errInvalidHead
	}
	if err := ctx.Err(); err != nil {
		c.conn.Close()
		return nil, err
	}
	c.detach = context.AfterFunc(ctx, c.poison)
	c.writeHead(&head, length)
	bw := c.bw
	if length >= 0 && length <= int64(bw.Available()) {
		// The body fits behind the head: read it into the same buffer
		// and send both with one write.
		inline := bw.AvailableBuffer()[:length]
		if _, err := io.ReadFull(body, inline); err != nil {
			return nil, c.fail(ctx, err)
		}
		bw.Write(inline)
		if err := bw.Flush(); err != nil {
			return nil, c.fail(ctx, &unanswered{err})
		}
		c.count(length, 0)
	} else {
		// Streaming handlers answer while still reading: writing the
		// whole body before the first response read would deadlock on
		// a full socket buffer, so a writer runs beside the reader.
		c.streaming = true
		go func() { c.wdone <- c.sendBody(body, length) }()
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, c.fail(ctx, &unanswered{unexpected(err)})
	}
	// Interim 1xx replies are read past, up to maxInterim of them, as
	// net/http's Transport does; a 101 would hand the connection to
	// another protocol, which the hop does not speak.
	for interim := 0; ; interim++ {
		if err := c.readResponse(head.Method == http.MethodHead); err != nil {
			return nil, c.fail(ctx, err)
		}
		switch code := c.resp.StatusCode; {
		case code == http.StatusSwitchingProtocols:
			return nil, c.fail(ctx, errUpgrade)
		case code >= 200:
			return &c.resp, nil
		case interim == maxInterim:
			return nil, c.fail(ctx, errTooManyInterim)
		}
	}
}

// maxInterim is how many interim 1xx replies RoundTrip reads past before
// it gives up on the final one: net/http's Transport allows as many.
const maxInterim = 5

var (
	errUpgrade        = errors.New("hop: 101 Switching Protocols: the hop does not upgrade")
	errTooManyInterim = errors.New("hop: too many interim 1xx replies")
)

// readResponse reads a response head into c.resp and sets its body up:
// none for a reply to HEAD or a 1xx, 204 or 304, else the one framing
// the head declares, or the rest of the connection when it declares
// none.
func (c *Conn) readResponse(head bool) error {
	raw, err := readHead(c.br, c.raw)
	c.raw = raw
	if err != nil {
		return unexpected(err)
	}
	h := make(http.Header)
	line, err := parseHead(raw, h)
	if err != nil {
		return err
	}
	proto, status, _ := strings.Cut(line, " ")
	minor, ok := parseProto(proto)
	code, _, _ := strings.Cut(status, " ")
	if !ok || len(code) != 3 || code[0] == '0' || parseLength(code) < 0 {
		return errMalformed
	}
	length, chunked, err := framing(h)
	if err != nil {
		return err
	}
	if chunked && minor == 0 {
		return errOldChunked // RFC 9112 §6.1: faulty framing; net/http reads the body raw
	}
	c.resp = http.Response{
		Status: status, StatusCode: int(parseLength(code)),
		Proto: proto, ProtoMajor: 1, ProtoMinor: minor,
		Header: h, Body: &c.body, ContentLength: length,
		Close: closeAsked(minor, h),
	}
	if chunked {
		delete(h, "Transfer-Encoding")
		c.resp.TransferEncoding = chunkedTE
	}
	c.body = respBody{c: c, r: http.NoBody}
	switch n := c.resp.StatusCode; {
	case head: // keeps the length it declares
	case n < 200 || n == http.StatusNoContent || n == http.StatusNotModified:
		c.resp.ContentLength = 0
	case chunked:
		c.chunked.reset(c.br, &c.resp.Trailer, &c.raw)
		c.body.r = &c.chunked
	case length >= 0:
		c.length = lengthBody{br: c.br, n: length}
		c.body.r = &c.length
	default:
		c.resp.Close = true // the body ends where the connection does
		c.body.r = c.br
	}
	c.closing = c.resp.Close
	return nil
}

// errInvalidHead refuses a method, path or host that is empty or holds
// a space or a byte outside printable ASCII: written raw into the
// request line or the Host field, such a byte would end it early and
// let the rest pass for more headers or a second request. A caller
// escapes what it puts in a path.
var errInvalidHead = errors.New("hop: request method, path or host is not printable ASCII")

// wireToken reports whether s is non-empty and every byte of it is
// printable ASCII other than the space.
func wireToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] >= 0x7f {
			return false
		}
	}
	return s != ""
}

// writeHead buffers the request line and headers. Host and the body's
// framing are the connection's own; what net/http's transport and a
// reverse proxy would not pass on is dropped: the hop-by-hop headers,
// those Connection names, Expect (this hop never waits for a 100
// Continue) and any field whose name or value would break the framing.
func (c *Conn) writeHead(head *Head, length int64) {
	bw := c.bw
	bw.WriteString(head.Method)
	bw.WriteByte(' ')
	bw.WriteString(head.Path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(c.host)
	bw.WriteString("\r\n")
	connection := head.Header["Connection"]
	for k, vs := range head.Header {
		if dropped(k) || named(connection, k) ||
			head.Traceparent != "" && strings.EqualFold(k, TraceparentHeader) {
			continue
		}
		for _, v := range vs {
			if !validValue(v) {
				continue
			}
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(v)
			bw.WriteString("\r\n")
		}
	}
	if head.Traceparent != "" {
		bw.WriteString(TraceparentHeader + ": ")
		bw.WriteString(head.Traceparent)
		bw.WriteString("\r\n")
	}
	if length < 0 {
		bw.WriteString("Transfer-Encoding: chunked\r\n\r\n")
		return
	}
	bw.WriteString("Content-Length: ")
	writeInt(bw, length, 10)
	bw.WriteString("\r\n\r\n")
}

// hopByHop are the fields that describe one connection, not the
// message (RFC 9110 §7.6.1, plus the legacy Proxy-Connection): a proxy
// passes none of them on, either way.
var hopByHop = []string{"Connection", "Keep-Alive", "Proxy-Connection", "TE", "Trailer", "Transfer-Encoding", "Upgrade"}

// notForwarded are the request headers a hop never writes from Head:
// Host and Content-Length are its own, Expect it does not honour, and
// the hop-by-hop ones.
var notForwarded = append([]string{"Host", "Content-Length", "Expect"}, hopByHop...)

// dropped reports whether k is never forwarded, or is no field name.
func dropped(k string) bool {
	return listed(notForwarded, k) || !token(k)
}

// listed reports whether names holds k, in any case.
func listed(names []string, k string) bool {
	for _, h := range names {
		if strings.EqualFold(k, h) {
			return true
		}
	}
	return false
}

// relayed reports whether a proxy passes field k of reply header h on
// to its client: k is a field name, not hop-by-hop and not one that h's
// Connection names. So an upstream closing its own connection does not
// close the client's.
func relayed(h http.Header, k string) bool {
	return token(k) && !listed(hopByHop, k) && !named(h["Connection"], k)
}

// Relay passes a proxied reply on to w, the one relay both proxies
// run: the fields relayed allows and skip (when not nil) does not
// refuse, Content-Length among them when the reply declares one, then
// the status, then the body through Copy. A field w's header already
// holds is the proxy's own stamp and keeps its value. The error is
// Copy's, so ReadFailed tells a reply the upstream cut short from a
// client that stopped taking it. The caller ends the exchange.
func Relay(w http.ResponseWriter, resp *http.Response, skip func(string) bool) (int64, error) {
	h := w.Header()
	for k, vs := range resp.Header {
		if _, own := h[k]; !own && relayed(resp.Header, k) && (skip == nil || !skip(k)) {
			h[k] = vs
		}
	}
	w.WriteHeader(resp.StatusCode)
	return Copy(w, resp.Body)
}

// named reports whether a Connection header lists k.
func named(connection []string, k string) bool {
	for _, v := range connection {
		for v != "" {
			var opt string
			opt, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(opt), k) {
				return true
			}
		}
	}
	return false
}

// tchar marks the bytes that may appear in a field name (RFC 9110
// §5.6.2).
var tchar = func() (t [256]bool) {
	for _, c := range "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" {
		t[c] = true
	}
	return t
}()

// token reports whether s is a non-empty field name.
func token(s string) bool {
	for i := 0; i < len(s); i++ {
		if !tchar[s[i]] {
			return false
		}
	}
	return s != ""
}

// validValue reports whether v can be written as a field value without
// ending the field early.
func validValue(v string) bool {
	return !strings.ContainsAny(v, "\r\n\x00")
}

// sendBody streams the request body, chunked when its length is
// unknown, one write per read so a duplex handler sees bytes as the
// client sends them; a served request's length-framed body goes in the
// kernel instead (spliceBody). A failing source (client gone, body
// limit hit, body short of its length) poisons the connection: the
// peer is owed bytes that will never come, and the blocked response
// read must return. A failing socket needs no help — the reader sees
// it too, or sees the early response that explains it.
func (c *Conn) sendBody(body io.Reader, length int64) error {
	if handled, err := c.spliceBody(body, length); handled {
		return err
	}
	chunked := length < 0
	bw := c.bw
	bp := GetBuf()
	defer PutBuf(bp)
	var sent int64
	defer func() { c.count(sent, 0) }()
	for chunked || sent < length {
		buf := *bp
		if !chunked && length-sent < int64(len(buf)) {
			buf = buf[:length-sent]
		}
		n, rerr := body.Read(buf)
		sent += int64(n)
		if n > 0 {
			var werr error
			switch {
			case chunked:
				writeInt(bw, int64(n), 16)
				bw.WriteString("\r\n")
				bw.Write(buf[:n])
				bw.WriteString("\r\n")
				werr = bw.Flush()
			case bw.Buffered() > 0: // the head rides with the first chunk
				bw.Write(buf[:n])
				werr = bw.Flush()
			default:
				_, werr = c.conn.Write(buf[:n])
			}
			if werr != nil {
				return werr
			}
		}
		if rerr == io.EOF && chunked {
			break
		}
		if rerr != nil && (chunked || sent < length) {
			if rerr == io.EOF {
				rerr = io.ErrUnexpectedEOF
			}
			c.poison()
			return rerr
		}
	}
	if chunked {
		bw.WriteString("0\r\n\r\n")
	}
	return bw.Flush()
}

// Finish ends an exchange whose response the owner is done with and
// reports whether the connection can carry another request: only if
// the response was read to EOF without Connection: close, nothing the
// peer wrote past it sits in the read buffer (the next exchange would
// read it as its response), the body writer succeeded and ctx never
// fired. Otherwise it is closed.
func (c *Conn) Finish() bool {
	ok := c.body.eof && !c.closing && c.br.Buffered() == 0
	if ok && c.streaming {
		// A complete response normally means the peer consumed the
		// whole request and the writer's last write is just returning.
		// One still going after the grace is feeding a peer that
		// answered without reading and will not read again.
		grace := time.NewTimer(writerGrace)
		select {
		case werr := <-c.wdone:
			c.streaming = false
			ok = werr == nil
		case <-grace.C:
			ok = false
		}
		grace.Stop()
	}
	if !ok {
		c.Abort()
		return false
	}
	if _, fired := c.end(); fired {
		c.conn.Close()
		return false
	}
	return true
}

// Abort kills the exchange and the connection. Closing first unblocks
// a body writer stuck on the socket; the writer's error is returned.
func (c *Conn) Abort() error {
	c.conn.Close()
	werr, _ := c.end()
	return werr
}

// settled reports whether no exchange is running: no body writer is
// left and no result of one is unread. It holds whenever RoundTrip has
// failed or Finish or Abort has returned.
func (c *Conn) settled() bool { return !c.streaming && len(c.wdone) == 0 }

// end waits for the body writer and unhooks ctx, so nothing touches
// the connection once its owner moves on. It reports the writer's
// error and whether ctx fired.
func (c *Conn) end() (werr error, fired bool) {
	if c.streaming {
		werr = <-c.wdone
		c.streaming = false
	}
	return werr, !c.detach()
}

// fail aborts the exchange and picks the error that explains it. A
// body writer's error replaces err but keeps its unanswered mark.
func (c *Conn) fail(ctx context.Context, err error) error {
	werr := c.Abort()
	var mbe *http.MaxBytesError
	switch {
	case errors.As(werr, &mbe):
		return werr
	case ctx.Err() != nil:
		return ctx.Err()
	case werr != nil && Unanswered(err):
		return &unanswered{werr}
	case werr != nil:
		return werr
	}
	return err
}

// Close releases the connection between exchanges.
func (c *Conn) Close() { c.conn.Close() }
