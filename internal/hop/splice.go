package hop

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"
)

// This file moves a body from one socket to another in the kernel:
// (*net.TCPConn).ReadFrom runs splice(2) through a pipe when it is handed
// an io.LimitedReader over another bare *net.TCPConn. It applies where a
// body read off a connection by this package's own framing (a wireBody)
// is written straight to another: Copy into a Server's reply, and a
// Conn's request body when it is a served request's. The bytes the reader
// already holds go through the writer first.

// spliceMin is the largest segment the copy path keeps: one the reader
// can hold costs a read and a write either way.
const spliceMin = readBufSize

// probeWait bounds the read that tells which side failed a splice.
const probeWait = time.Millisecond

// A wireBody is a served request's body or a Conn response's.
type wireBody interface {
	io.Reader
	// segment reports how many body bytes follow before the next framing
	// (the rest of a length-framed body, or of the current chunk, which
	// it begins when one is due), and io.EOF at the body's end. 0 with no
	// error: the bytes must be read (a limit is to be enforced).
	segment() (int64, error)
	// wire returns the reader over the body's connection, and the
	// connection when the kernel can splice it.
	wire() (*bufio.Reader, *net.TCPConn)
	// moved books n bytes of the segment as moved past the reader, and
	// the error that stopped the move, if any.
	moved(n int64, err error)
}

// framer is a body's framing reader: lengthBody or chunkedBody.
type framer interface {
	io.Reader
	segment() (int64, error)
	skip(n int64)
}

// readError marks a failure on the side a Copy reads from.
type readError struct{ err error }

func (e *readError) Error() string { return e.err.Error() }
func (e *readError) Unwrap() error { return e.err }

// ReadFailed reports whether a Copy failed reading its source rather
// than writing its destination: for a relay, the sender's side.
func ReadFailed(err error) bool {
	var r *readError
	return errors.As(err, &r)
}

// canSplice reports whether conn is a socket the kernel can splice.
func canSplice(conn net.Conn) (*net.TCPConn, bool) {
	tc, ok := conn.(*net.TCPConn)
	return tc, ok && runtime.GOOS == "linux"
}

// move sends the next n bytes of a body, read from rd over src, to dst
// behind whatever bw holds: those rd holds through bw, the rest spliced.
// A failure on src's side comes back as a *readError.
func move(bw *bufio.Writer, dst *net.TCPConn, rd *bufio.Reader, src *net.TCPConn, n int64) (int64, error) {
	sent := min(int64(rd.Buffered()), n)
	if sent > 0 {
		p, _ := rd.Peek(int(sent))
		bw.Write(p)
		rd.Discard(int(sent))
	}
	if err := bw.Flush(); err != nil || sent == n {
		return sent, err
	}
	m, err := dst.ReadFrom(&io.LimitedReader{R: src, N: n - sent})
	switch sent += m; {
	case sent == n:
		return n, nil
	case err == nil: // src ended early
		return sent, &readError{io.ErrUnexpectedEOF}
	case !alive(src):
		return sent, &readError{err}
	}
	return sent, err
}

// alive tells which side failed a splice, which returns the errors of
// both alike, by reading src once more, briefly: a byte, or none yet,
// means src is still there and dst failed. The byte is lost and the
// deadline stays: the body has lost its place either way.
func alive(src *net.TCPConn) bool {
	src.SetReadDeadline(time.Now().Add(probeWait))
	var b [1]byte
	_, err := src.Read(b[:])
	var ne net.Error
	return err == nil || errors.As(err, &ne) && ne.Timeout()
}

// splices reports whether b's segments can splice into the reply: both
// are sockets the kernel splices, and the reply has a framed body on the
// wire (not a reply to HEAD, nor an HTTP/1.0 one).
func (w *response) splices(b wireBody) bool {
	if b == nil {
		return false
	}
	_, dst := canSplice(w.s.conn)
	_, src := b.wire()
	return dst && src != nil && !w.s.head && w.s.req.ProtoMinor != 0
}

// takes reports whether the reply can take n more body bytes; Write
// refuses them otherwise.
func (w *response) takes(n int64) bool {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return bodyAllowed(w.status) && (w.length < 0 || w.written+n <= w.length)
}

// splice moves b's current segment, n bytes, into the reply, framed as
// the reply is: a chunk of the same size, or raw within the declared
// length. A head not yet sent goes first, any Content-Type it owes
// sniffed from the segment's first bytes.
func (w *response) splice(b wireBody, n int64) (int64, error) {
	s := w.s
	dst, _ := canSplice(s.conn)
	rd, src := b.wire()
	if !w.sent {
		var next []byte
		if w.sniffs() {
			next, _ = rd.Peek(int(min(n, sniffLen)))
		}
		if err := w.commit(false, next); err != nil {
			w.lost = true
			return 0, err
		}
	}
	if w.chunked {
		writeInt(s.bw, n, 16)
		s.bw.WriteString("\r\n")
	}
	m, err := move(s.bw, dst, rd, src, n)
	b.moved(m, err)
	w.written += m
	w.spliced += m
	if err != nil {
		s.closing = true
		w.lost = !ReadFailed(err)
		return m, err
	}
	if w.chunked {
		s.bw.WriteString("\r\n")
	}
	return m, nil
}

// spliceBody sends body, a served request's length-framed body of the
// given length, behind the head bw holds; handled is false, with nothing
// sent, when it cannot. A source that fails poisons the connection, as
// in sendBody.
func (c *Conn) spliceBody(body io.Reader, length int64) (handled bool, err error) {
	b, ok := body.(*reqBody)
	dst, tcp := canSplice(c.conn)
	if !ok || !tcp {
		return false, nil
	}
	rd, src := b.wire()
	if n, err := b.segment(); src == nil || err != nil || n != length || n <= spliceMin {
		return false, nil
	}
	m, err := move(c.bw, dst, rd, src, length)
	b.moved(m, err)
	c.count(0, m)
	var re *readError
	if errors.As(err, &re) {
		c.poison()
		return true, re.err
	}
	b.segment() // books the body's end
	return true, err
}
