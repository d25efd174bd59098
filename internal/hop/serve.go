package hop

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// pendingSize is how much of a reply with no declared length Serve
	// holds back: a reply that ends within it goes out with a
	// Content-Length, as net/http's server does for a handler that
	// returns within 2 KiB.
	pendingSize = 2 << 10
	// sniffLen is how much of a front-door reply's body its Content-Type
	// is sniffed from, as net/http's.
	sniffLen = 512
	// frontDrain is how much of a body its handler left unread a front
	// door reads before it closes the connection instead, as net/http's
	// server does.
	frontDrain = 256 << 10
	// watchDelay is how long a front-door request runs before its
	// disconnect watch may start. A warm request is answered well within
	// it, so it pays for no goroutine, read or deadline; a client's
	// hang-up is seen at most this much later.
	watchDelay = time.Millisecond
)

// Connection states: Stop closes an idle connection at once and lets a
// busy one finish its request.
const (
	idle int32 = iota
	busy
	shut
)

var (
	errNoHost      = errors.New("hop: missing or duplicate Host")
	errExpectation = errors.New("hop: unsupported Expect")
	errOldChunked  = errors.New("hop: Transfer-Encoding on an HTTP/1.0 message")
)

// server is one connection's state, reused by each request on it.
type server struct {
	conn    net.Conn
	owner   *Server
	front   bool
	br      *bufio.Reader
	bw      *bufio.Writer
	maxBody int64
	remote  string
	raw     []byte // the request head, read before it is parsed
	state   atomic.Int32

	// A front door's: the reader under br, which hands out first the byte
	// the disconnect watch took, and the watch itself, which starts once
	// the running request's body is read and its timer has fired.
	cr       connReader
	cancel   context.CancelFunc // ends the running request's context
	timer    *time.Timer        // fires watchDelay into each request
	wmu      sync.Mutex         // guards the fields below
	gen      uint64             // requests begun: the running one's generation
	settled  uint64             // generations whose timer fired or was stopped
	running  bool               // a handler runs
	read     bool               // its body is read
	due      bool               // its timer fired
	watching bool
	watched  chan struct{} // the watch's goroutine is done

	// Per-request state.
	req     http.Request
	header  http.Header
	url     url.URL
	body    reqBody
	w       response
	head    bool // a HEAD request: the reply has no body
	closing bool // the connection ends after this reply
}

// newServer is owner's state for conn, in its role and under its body
// limit.
func newServer(conn net.Conn, owner *Server) *server {
	s := &server{
		conn:    conn,
		owner:   owner,
		front:   owner.Front,
		bw:      bufio.NewWriterSize(conn, readBufSize),
		maxBody: owner.maxBody.Load(),
		remote:  conn.RemoteAddr().String(),
		header:  http.Header{},
	}
	var rd io.Reader = conn
	if s.front {
		s.cr.conn = conn
		rd = &s.cr
		s.watched = make(chan struct{}, 1)
	}
	s.br = bufio.NewReaderSize(rd, readBufSize)
	s.w = response{s: s, header: http.Header{}}
	return s
}

// run serves conn until it ends, then closes it.
func (s *server) run(h http.Handler) {
	defer s.conn.Close()
	for s.next(h) {
	}
}

// next serves one request and reports whether the connection carries
// another.
func (s *server) next(h http.Handler) bool {
	if _, err := s.br.Peek(1); err != nil {
		return false // the peer is done
	}
	if err := s.readRequest(); err != nil {
		s.refuse(err)
		return false
	}
	if !s.state.CompareAndSwap(idle, busy) {
		return false // Stop closed the connection meanwhile
	}
	ok := s.call(h) && s.finish()
	s.state.Store(idle)
	return ok && !s.stopping()
}

// stopping reports whether the connection's Server is stopping.
func (s *server) stopping() bool { return s.owner.stopping.Load() }

// readRequest reads a request head into s.req and sets its body up. An
// error means the request is refused unserved.
func (s *server) readRequest() error {
	raw, err := readHead(s.br, s.raw)
	s.raw = raw
	if err != nil {
		return err
	}
	clear(s.header)
	line, err := parseHead(raw, s.header)
	if err != nil {
		return err
	}
	method, rest, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(rest, " ")
	minor, ok := parseProto(proto)
	if !ok || !token(method) || !wireToken(target) {
		return errMalformed
	}
	if strings.IndexByte(target, '%') < 0 && target[0] == '/' {
		path, query, _ := strings.Cut(target, "?")
		s.url = url.URL{Path: path, RawQuery: query}
	} else if u, err := url.ParseRequestURI(target); err == nil {
		s.url = *u
	} else {
		return errMalformed
	}
	hosts := s.header["Host"]
	if len(hosts) != 1 || hosts[0] != "" && !wireToken(hosts[0]) {
		return errNoHost
	}
	delete(s.header, "Host")
	length, chunked, err := framing(s.header)
	if err != nil {
		return err
	}
	if chunked && minor == 0 {
		// net/http ignores the field here and reads no body: refused, no
		// peer reads the message two ways.
		return errOldChunked
	}
	s.body = reqBody{s: s, max: -1}
	s.req = http.Request{
		Method: method, URL: &s.url, RequestURI: target,
		Proto: proto, ProtoMajor: 1, ProtoMinor: minor,
		Header: s.header, Body: &s.body, Host: hosts[0], RemoteAddr: s.remote,
		Close: closeAsked(minor, s.header),
	}
	switch {
	case chunked:
		delete(s.header, "Transfer-Encoding")
		s.req.ContentLength, s.req.TransferEncoding = -1, chunkedTE
		s.body.chunked.reset(s.br, nil, &s.raw)
		s.body.r = &s.body.chunked
	case length > 0:
		s.req.ContentLength = length
		s.body.length = lengthBody{br: s.br, n: length}
		s.body.r = &s.body.length
	default:
		s.body.err = io.EOF
	}
	if expect, ok := s.header["Expect"]; ok {
		if len(expect) != 1 || !strings.EqualFold(expect[0], "100-continue") {
			return errExpectation
		}
		s.body.continueOwed = s.body.err == nil
	}
	if s.maxBody > 0 {
		s.body.max = s.maxBody
	}
	s.head = method == http.MethodHead
	s.closing = s.req.Close
	s.w.reset()
	return nil
}

// refuse answers a request that cannot be served, and the connection
// closes after it. The owner's refusal hook hears why the head was
// refused; a connection that failed mid-head refused nothing.
func (s *server) refuse(err error) {
	status, reason := http.StatusBadRequest, ""
	switch err {
	case io.EOF, io.ErrUnexpectedEOF:
		return // nobody to answer
	case errHeadTooLarge:
		status, reason = http.StatusRequestHeaderFieldsTooLarge, "head_too_large"
	case errUnsupportedT:
		status, reason = http.StatusNotImplemented, "coding"
	case errExpectation:
		status, reason = http.StatusExpectationFailed, "expect"
	case errBothFramings:
		reason = "both_framings"
	case errTwoLengths:
		reason = "two_lengths"
	case errNoHost:
		reason = "host"
	case errOldChunked:
		reason = "chunked_http10"
	case errMalformed, errBadLength:
		reason = "malformed"
	}
	if reason != "" && s.owner.refused != nil {
		s.owner.refused(reason)
	}
	msg := err.Error()
	fmt.Fprintf(s.bw, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s",
		status, http.StatusText(status), len(msg), msg)
	s.bw.Flush()
}

// call runs the handler; false means it panicked.
func (s *server) call(h http.Handler) (ok bool) {
	req := &s.req
	if s.front {
		req = s.begin()
		defer s.end()
	}
	defer func() {
		if v := recover(); v != nil {
			ok = false
			s.w.count()
			if v != http.ErrAbortHandler {
				if s.owner.panicked != nil {
					s.owner.panicked()
				}
				log.Printf("hop: panic serving %s: %v\n%s", s.remote, v, debug.Stack())
			}
		}
	}()
	h.ServeHTTP(&s.w, req)
	return true
}

// begin gives a front-door request its context, which ends when the
// handler returns or the client goes away, and arms the connection's
// timer for the disconnect watch.
func (s *server) begin() *http.Request {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wmu.Lock()
	s.gen++
	s.running, s.read, s.due = true, s.body.err == io.EOF, false
	if s.timer == nil {
		s.timer = time.AfterFunc(watchDelay, s.expire)
	} else {
		s.timer.Reset(watchDelay)
	}
	s.wmu.Unlock()
	return s.req.WithContext(ctx)
}

// end ends a front-door request: its timer stops, the watch stops, a
// byte it read stays for the next parse, and the context ends.
func (s *server) end() {
	s.wmu.Lock()
	if s.timer.Stop() {
		s.settled++ // this generation's timer will not fire
	}
	s.running = false
	watching := s.watching
	s.watching = false
	s.wmu.Unlock()
	if watching {
		s.conn.SetReadDeadline(aLongTimeAgo)
		<-s.watched
		s.conn.SetReadDeadline(time.Time{})
	}
	s.cancel()
}

// expire is the timer's callback. A callback stands for the oldest
// generation not yet settled: one that fired as its request ended may
// run after the next request began, and must not arm that one early.
// (Two callbacks pending at once may take each other's generation, but
// by then the newer request has run watchDelay too.)
func (s *server) expire() {
	s.wmu.Lock()
	s.settled++
	s.fire(s.settled)
	s.wmu.Unlock()
}

// fire marks generation gen's delay as passed, which starts its watch
// once its body is read; an older generation's is ignored. wmu is held.
func (s *server) fire(gen uint64) {
	if gen != s.gen {
		return
	}
	s.due = true
	if s.read {
		s.watch()
	}
}

// bodyRead marks the running request's body as read, which starts its
// watch once its delay has passed.
func (s *server) bodyRead() {
	s.wmu.Lock()
	s.read = true
	if s.due {
		s.watch()
	}
	s.wmu.Unlock()
}

// watch starts the disconnect watch while a handler runs: one read on
// the connection, which has nothing else to read until the next
// request. An end or an error means the client went away and ends the
// request's context; a byte is the next pipelined request's first, kept
// for its parse. Once the handler returns, end stops it, so it never
// races the next parse. wmu is held.
func (s *server) watch() {
	if !s.running || s.watching {
		return
	}
	s.watching = true
	go func() {
		n, err := s.conn.Read(s.cr.b[:])
		if n > 0 {
			s.cr.held = true
		} else if !errors.Is(err, os.ErrDeadlineExceeded) {
			s.cancel()
		}
		s.watched <- struct{}{}
	}()
}

// connReader is what a front door's reader reads: the byte the
// disconnect watch took, then the connection.
type connReader struct {
	conn net.Conn
	b    [1]byte
	held bool
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.held && len(p) > 0 {
		r.held = false
		p[0] = r.b[0]
		return 1, nil
	}
	return r.conn.Read(p)
}

// finish ends the exchange a handler returned from: it reads what the
// handler left of the request body — up to frontDrain at a front door,
// else all of it — then completes the reply. It reports whether the
// connection carries another request.
func (s *server) finish() bool {
	b := &s.body
	if b.continueOwed {
		s.closing = true // the peer may or may not send a body nobody asked for
	} else if !s.closing && b.err == nil {
		var rest io.Reader = b
		if s.front {
			rest = io.LimitReader(b, frontDrain)
		}
		Copy(io.Discard, rest)
	}
	if b.err != io.EOF {
		s.closing = true
	}
	w := &s.w
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.sent {
		w.commit(true, nil)
	}
	bw := s.bw
	if w.chunked && !s.head {
		bw.WriteString("0\r\n")
		for _, names := range w.header["Trailer"] {
			for names != "" {
				var k string
				k, names, _ = strings.Cut(names, ",")
				k = http.CanonicalHeaderKey(strings.TrimSpace(k))
				w.writeField(k)
			}
		}
		bw.WriteString("\r\n")
	}
	if w.length >= 0 && w.written < w.length && bodyAllowed(w.status) && !s.head {
		s.closing = true // the reply is short of what its head declares
	}
	w.count() // before the peer can see the reply end
	return bw.Flush() == nil && !s.closing
}

// reqBody is a request's body: its framing, the body limit and the
// 100 Continue owed to a peer that asked for one.
type reqBody struct {
	s            *server
	r            framer // &length or &chunked; nil with no body
	length       lengthBody
	chunked      chunkedBody
	max          int64 // bytes still allowed past the limit check; -1 none
	err          error // sticky, io.EOF included
	continueOwed bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if err := b.ask(); err != nil {
		return 0, err
	}
	if b.max >= 0 && int64(len(p)) > b.max+1 {
		p = p[:b.max+1] // one byte past the limit tells whether it is crossed
	}
	n, err := b.r.Read(p)
	if b.max >= 0 {
		if int64(n) > b.max {
			n, b.max = int(b.max), 0
			b.s.closing = true
			b.err = &http.MaxBytesError{Limit: b.s.maxBody}
			return n, b.err
		}
		b.max -= int64(n)
	}
	b.settle(err)
	return n, err
}

// ask sends the 100 Continue a peer waits for before it sends the body,
// unless the reply has started.
func (b *reqBody) ask() error {
	if !b.continueOwed {
		return nil
	}
	b.continueOwed = false
	if !b.s.w.sent {
		b.s.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		if err := b.s.bw.Flush(); err != nil {
			b.err = err
			return err
		}
	}
	return nil
}

// settle books what a read of the body returned. At a front door the
// body's end lets the disconnect watch start, and the connection
// failing under it means the client went away.
func (b *reqBody) settle(err error) {
	b.err = err
	switch {
	case !b.s.front || err == nil:
	case err == io.EOF:
		b.s.bodyRead()
	default:
		var ne net.Error
		if err == io.ErrUnexpectedEOF || errors.As(err, &ne) {
			b.s.cancel()
		}
	}
}

func (b *reqBody) segment() (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	if err := b.ask(); err != nil {
		return 0, err
	}
	n, err := b.r.segment()
	if err != nil {
		b.settle(err)
		return 0, err
	}
	if b.max >= 0 && n > b.max {
		return 0, nil // Read trips the limit
	}
	return n, nil
}

func (b *reqBody) wire() (*bufio.Reader, *net.TCPConn) {
	tc, _ := canSplice(b.s.conn)
	return b.s.br, tc
}

func (b *reqBody) moved(n int64, err error) {
	b.r.skip(n)
	if b.max >= 0 {
		b.max -= n
	}
	if ReadFailed(err) {
		b.settle(io.ErrUnexpectedEOF) // the client's side failed
	}
	if err != nil {
		b.err = err // the body lost its place
	}
}

func (b *reqBody) Close() error { return nil }

// response is the http.ResponseWriter Serve hands a handler. It holds
// back the first pendingSize bytes of a reply with no declared length,
// so a short reply goes out with a Content-Length, its trailers in the
// head, and a longer one chunked.
type response struct {
	s       *server
	header  http.Header
	status  int   // 0 until WriteHeader
	length  int64 // the declared Content-Length, -1 none
	written int64 // body bytes the handler wrote
	spliced int64 // of them, the ones splice moved
	sent    bool  // the head is written
	chunked bool
	lost    bool // a write to the peer failed: it is gone
	n       int  // bytes held back in pending
	pending [pendingSize]byte
}

func (w *response) reset() {
	clear(w.header)
	w.status, w.length, w.written, w.spliced, w.sent, w.chunked, w.lost, w.n = 0, -1, 0, 0, false, false, false, 0
}

// count hands the reply's body bytes to the server's body hook, once
// the handler is done: what it wrote, but what is still held back when a
// panic ended the reply unsent.
func (w *response) count() {
	f := w.s.owner.bodies
	if sent := w.written - int64(w.n); f != nil && sent > 0 && !w.s.head {
		f(sent-w.spliced, w.spliced)
	}
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader fixes the status and reads the declared Content-Length. A
// second call, or an invalid code, is ignored.
func (w *response) WriteHeader(code int) {
	if w.status != 0 || code < 100 || code > 999 {
		return
	}
	w.status = code
	if cl := w.header.Get("Content-Length"); cl != "" {
		w.length = parseLength(cl)
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.length >= 0 && w.written+int64(len(p)) > w.length {
		return 0, http.ErrContentLength
	}
	w.written += int64(len(p))
	n := len(p)
	if !w.sent {
		k := copy(w.pending[w.n:], p)
		if w.n += k; k == len(p) {
			return n, nil
		}
		if err := w.commit(false, nil); err != nil {
			w.lost = true
			return 0, err
		}
		p = p[k:]
	}
	if err := w.send(p); err != nil {
		w.lost = true
		return 0, err
	}
	return n, nil
}

// ReadFrom is Copy, so an io.Copy into the reply moves BufSize chunks,
// or a body read off another socket in the kernel.
func (w *response) ReadFrom(r io.Reader) (int64, error) { return Copy(w, r) }

// Committed reports whether a handler Serve runs has written any byte of
// its reply's body: a handler that fails before it can still answer with
// an error status. It is false for any other writer.
func Committed(w http.ResponseWriter) bool {
	r, ok := w.(*response)
	return ok && r.written > 0
}

// Sent reports what a handler Serve runs has sent of its reply so far:
// the body bytes it wrote, and whether a write to the peer failed, the
// peer being gone. Zero and false for any other writer.
func Sent(w http.ResponseWriter) (written int64, lost bool) {
	if r, ok := w.(*response); ok {
		return r.written, r.lost
	}
	return 0, false
}

// Retract takes back a reply whose head is not out yet: its status and
// the body bytes held back are dropped and its header fields kept, so
// the handler can still answer with another status. It reports false
// once the head is sent; any other writer is left as it is, and true.
func Retract(w http.ResponseWriter) bool {
	r, ok := w.(*response)
	if !ok {
		return true
	}
	if r.sent {
		return false
	}
	r.status, r.length, r.written, r.n = 0, -1, 0, 0
	return true
}

// commit writes the head, framing the body one way: the declared
// length; else, when the handler is done, the length it wrote — any
// trailers it declared are set by then and go in the head; else
// chunked (close-delimited for an HTTP/1.0 peer), with the declared
// trailers after the last chunk. Then it sends what was held back. At a
// front door the head also carries a Date and, when the handler set
// none, a Content-Type sniffed from what was held back, or else from
// next, the bytes about to follow.
func (w *response) commit(done bool, next []byte) error {
	w.sent = true
	s := w.s
	if named(w.header["Connection"], "close") || s.stopping() {
		s.closing = true
	}
	switch {
	case !bodyAllowed(w.status) || w.length >= 0:
	case done:
		w.length = int64(w.n)
	case s.head:
	case s.req.ProtoMinor == 0:
		s.closing = true
	default:
		w.chunked = true
	}
	bw := s.bw
	bw.WriteString("HTTP/1.1 ")
	writeInt(bw, int64(w.status), 10)
	bw.WriteByte(' ')
	bw.WriteString(http.StatusText(w.status))
	bw.WriteString("\r\n")
	for k := range w.header {
		switch k {
		case "Content-Length", "Transfer-Encoding", "Connection":
		case "Trailer":
			if w.chunked {
				w.writeField(k)
			}
		default:
			w.writeField(k)
		}
	}
	if s.front {
		w.frontFields(next)
	}
	switch {
	case w.chunked:
		bw.WriteString("Transfer-Encoding: chunked\r\n")
	case w.length >= 0 && bodyAllowed(w.status):
		bw.WriteString("Content-Length: ")
		writeInt(bw, w.length, 10)
		bw.WriteString("\r\n")
	}
	if s.closing {
		bw.WriteString("Connection: close\r\n")
	}
	bw.WriteString("\r\n")
	n := w.n
	w.n = 0
	return w.send(w.pending[:n])
}

// sniffs reports whether a front door owes the reply a sniffed
// Content-Type, as net/http's server does: the handler set none and no
// Content-Encoding, and the reply has a body.
func (w *response) sniffs() bool {
	_, typed := w.header["Content-Type"]
	return w.s.front && !typed && bodyAllowed(w.status) && w.header.Get("Content-Encoding") == ""
}

// frontFields writes what a front door adds to a head: a Date, unless
// the handler set the field, and the sniffed Content-Type it owes.
func (w *response) frontFields(next []byte) {
	bw := w.s.bw
	if _, dated := w.header["Date"]; !dated {
		bw.WriteString("Date: ")
		bw.Write(time.Now().UTC().AppendFormat(bw.AvailableBuffer(), http.TimeFormat))
		bw.WriteString("\r\n")
	}
	if w.n > 0 {
		next = w.pending[:w.n]
	}
	if len(next) > 0 && w.sniffs() {
		bw.WriteString("Content-Type: ")
		bw.WriteString(http.DetectContentType(next))
		bw.WriteString("\r\n")
	}
}

// writeField writes the values of header field k that can be written
// as they are.
func (w *response) writeField(k string) {
	if !token(k) {
		return
	}
	bw := w.s.bw
	for _, v := range w.header[k] {
		if validValue(v) {
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(v)
			bw.WriteString("\r\n")
		}
	}
}

// send writes body bytes after the head, in the reply's framing.
func (w *response) send(p []byte) error {
	if len(p) == 0 || w.s.head {
		return nil
	}
	bw := w.s.bw
	if w.chunked {
		writeInt(bw, int64(len(p)), 16)
		bw.WriteString("\r\n")
		bw.Write(p)
		_, err := bw.WriteString("\r\n")
		return err
	}
	_, err := bw.Write(p)
	return err
}

// writeInt writes n in the given base without allocating.
func writeInt(bw *bufio.Writer, n int64, base int) {
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, base))
}

// bodyAllowed reports whether a reply with this status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}
