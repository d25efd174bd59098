package hop

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
)

// pendingSize is how much of a reply with no declared length Serve holds
// back: a reply that ends within it goes out with a Content-Length, as
// net/http's server does for a handler that returns within 2 KiB.
const pendingSize = 2 << 10

var (
	errNoHost      = errors.New("hop: missing or duplicate Host")
	errExpectation = errors.New("hop: unsupported Expect")
)

// Serve answers the requests read from conn with h, one at a time, until
// the peer closes conn, a request is refused or a reply must end the
// connection; then it closes conn. maxBody > 0 bounds every request
// body: a read past it fails with *http.MaxBytesError, and the
// connection closes after the reply.
//
// The request a handler gets, its Header and its Body are the
// connection's own and valid only until the handler returns. The body
// reads full duplex, before or after the reply starts; whatever the
// handler leaves unread is read to the message boundary after it
// returns. The reply is not sniffed for a Content-Type. A handler panic
// closes the connection and is logged unless it is
// http.ErrAbortHandler.
func Serve(conn net.Conn, h http.Handler, maxBody int64) {
	s := &server{
		br:      bufio.NewReaderSize(conn, readBufSize),
		bw:      bufio.NewWriterSize(conn, readBufSize),
		maxBody: maxBody,
		remote:  conn.RemoteAddr().String(),
		header:  http.Header{},
	}
	s.w = response{s: s, header: http.Header{}}
	defer conn.Close()
	for s.next(h) {
	}
}

// server is one connection's state, reused by each request on it.
type server struct {
	br      *bufio.Reader
	bw      *bufio.Writer
	maxBody int64
	remote  string
	raw     []byte // the request head, read before it is parsed

	// Per-request state.
	req     http.Request
	header  http.Header
	url     url.URL
	body    reqBody
	w       response
	head    bool // a HEAD request: the reply has no body
	closing bool // the connection ends after this reply
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
	if !s.call(h) {
		return false
	}
	return s.finish()
}

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
// closes after it.
func (s *server) refuse(err error) {
	status := http.StatusBadRequest
	switch err {
	case io.EOF, io.ErrUnexpectedEOF:
		return // nobody to answer
	case errHeadTooLarge:
		status = http.StatusRequestHeaderFieldsTooLarge
	case errUnsupportedT:
		status = http.StatusNotImplemented
	case errExpectation:
		status = http.StatusExpectationFailed
	}
	msg := err.Error()
	fmt.Fprintf(s.bw, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s",
		status, http.StatusText(status), len(msg), msg)
	s.bw.Flush()
}

// call runs the handler; false means it panicked.
func (s *server) call(h http.Handler) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			ok = false
			if v != http.ErrAbortHandler {
				log.Printf("hop: panic serving %s: %v\n%s", s.remote, v, debug.Stack())
			}
		}
	}()
	h.ServeHTTP(&s.w, &s.req)
	return true
}

// finish ends the exchange a handler returned from: it reads what the
// handler left of the request body, then completes the reply. It reports
// whether the connection carries another request.
func (s *server) finish() bool {
	b := &s.body
	if b.continueOwed {
		s.closing = true // the peer may or may not send a body nobody asked for
	} else if !s.closing && b.err == nil {
		if _, err := Copy(io.Discard, b); err != nil {
			s.closing = true
		}
	}
	if b.err != nil && b.err != io.EOF {
		s.closing = true
	}
	w := &s.w
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.sent {
		w.commit(true)
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
	return bw.Flush() == nil && !s.closing
}

// reqBody is a request's body: its framing, the body limit and the
// 100 Continue owed to a peer that asked for one.
type reqBody struct {
	s            *server
	r            io.Reader // the framing: &length or &chunked
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
	if b.continueOwed {
		b.continueOwed = false
		if !b.s.w.sent {
			b.s.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
			if err := b.s.bw.Flush(); err != nil {
				b.err = err
				return 0, err
			}
		}
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
	b.err = err
	return n, err
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
	sent    bool  // the head is written
	chunked bool
	n       int // bytes held back in pending
	pending [pendingSize]byte
}

func (w *response) reset() {
	clear(w.header)
	w.status, w.length, w.written, w.sent, w.chunked, w.n = 0, -1, 0, false, false, 0
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
	if !w.sent {
		if w.n+len(p) <= len(w.pending) {
			w.n += copy(w.pending[w.n:], p)
			return len(p), nil
		}
		if err := w.commit(false); err != nil {
			return 0, err
		}
	}
	if err := w.send(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadFrom copies through hop.Copy's pooled chunk, so an io.Copy into
// the reply moves BufSize chunks.
func (w *response) ReadFrom(r io.Reader) (int64, error) { return Copy(w, r) }

// Committed reports whether a handler Serve runs has written any byte of
// its reply's body: a handler that fails before it can still answer with
// an error status. It is false for any other writer.
func Committed(w http.ResponseWriter) bool {
	r, ok := w.(*response)
	return ok && r.written > 0
}

// commit writes the head, framing the body one way: the declared
// length; else, when the handler is done, the length it wrote — any
// trailers it declared are set by then and go in the head; else
// chunked (close-delimited for an HTTP/1.0 peer), with the declared
// trailers after the last chunk. Then it sends what was held back.
func (w *response) commit(done bool) error {
	w.sent = true
	s := w.s
	if named(w.header["Connection"], "close") {
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
