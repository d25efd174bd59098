package live

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// This file is the gateway's side of the watchdog hop. HotC leases an
// instance to exactly one request at a time, so the connection to its
// watchdog is never shared: it hangs off the instance, is dialed once
// as part of the boot, and is driven synchronously on the request's
// goroutine by whoever holds the instance between acquire and
// release/discard. That invariant is what makes a general-purpose
// client (idle pool, per-request goroutines and timers, a request
// object) unnecessary here: no lock, no pool, and a warm hit never
// dials.

const (
	// hopReadBuf sizes the response reader: heads and chunk framing go
	// through it, body reads larger than it bypass it.
	hopReadBuf = 4 << 10
	// hopHeadRoom is the write buffer's share for the request head
	// (fixed prefix, traceparent, length line), on top of copyBufSize
	// for an inline body.
	hopHeadRoom = 512
	// hopWriterGrace is how long a finished response waits for its
	// request's body writer before giving the connection up (net/http's
	// transport allows the same 50 ms).
	hopWriterGrace = 50 * time.Millisecond
)

// aLongTimeAgo is a deadline in the past: set on a connection, it
// fails every blocked and future read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// hop is one instance's keep-alive connection to its watchdog. Only
// the holder of the instance touches it, one exchange at a time:
// roundTrip starts an exchange and exactly one of finish or abort ends
// it (a failed roundTrip has already aborted).
type hop struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// head is the request line and the headers every request shares.
	head string
	// poison fails the connection's pending and future I/O. It is what
	// the request context runs when it fires, and what the body writer
	// runs when the client's body fails under it.
	poison func()
	// wdone carries the body writer's result, one send per streamed
	// exchange.
	wdone chan error

	// Per-exchange state.
	detach    func() bool // stops the context hook; false = it ran
	streaming bool        // a body writer is running
	body      hopBody
	closing   bool // the watchdog said Connection: close
}

// hopBody is the response body handed to the proxy loop. It remembers
// reaching EOF — the precondition for reusing the connection — and
// its Close is a no-op: the exchange is ended by finish or abort.
type hopBody struct {
	r   io.Reader
	eof bool
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *hopBody) Close() error { return nil }

// dialHop opens an instance's connection to the watchdog at addr.
func (g *Gateway) dialHop(ctx context.Context, addr string) (*hop, error) {
	conn, err := g.dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := &hop{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, hopReadBuf),
		bw:    bufio.NewWriterSize(conn, copyBufSize+hopHeadRoom),
		head:  "POST / HTTP/1.1\r\nHost: " + addr + "\r\nContent-Type: application/octet-stream\r\n",
		wdone: make(chan error, 1),
	}
	c.poison = func() { conn.SetDeadline(aLongTimeAgo) }
	return c, nil
}

// roundTrip forwards one request — body of the given length, negative
// when unknown — and returns the watchdog's response with its head
// parsed and its body (and trailers) still to be read from resp.Body.
// ctx firing fails whatever I/O the exchange is blocked in. On error
// the exchange is over and the connection closed; the error is a
// *http.MaxBytesError when the client's body tripped its limit, else
// ctx's when ctx fired. A request is never retried.
func (c *hop) roundTrip(ctx context.Context, body io.Reader, length int64, traceparent string) (*http.Response, error) {
	c.detach = context.AfterFunc(ctx, c.poison)
	bw := c.bw
	bw.WriteString(c.head)
	if traceparent != "" {
		bw.WriteString(TraceparentHeader + ": ")
		bw.WriteString(traceparent)
		bw.WriteString("\r\n")
	}
	if length < 0 {
		bw.WriteString("Transfer-Encoding: chunked\r\n\r\n")
	} else {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), length, 10))
		bw.WriteString("\r\n\r\n")
	}
	if length >= 0 && length <= int64(bw.Available()) {
		// The body fits behind the head: read it into the same buffer
		// and send both with one write.
		inline := bw.AvailableBuffer()[:length]
		if _, err := io.ReadFull(body, inline); err != nil {
			return nil, c.fail(ctx, err)
		}
		bw.Write(inline)
		if err := bw.Flush(); err != nil {
			return nil, c.fail(ctx, err)
		}
	} else {
		// Streaming handlers answer while still reading: writing the
		// whole body before the first response read would deadlock on
		// a full socket buffer, so a writer runs beside the reader.
		c.streaming = true
		go func() { c.wdone <- c.sendBody(body, length) }()
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, c.fail(ctx, err)
	}
	c.body = hopBody{r: resp.Body}
	resp.Body = &c.body
	c.closing = resp.Close
	return resp, nil
}

// sendBody streams the request body to the watchdog, chunked when its
// length is unknown, one write per read so a duplex handler sees bytes
// as the client sends them. A failing source (client gone, body limit
// hit, body short of its length) poisons the connection: the watchdog
// is owed bytes that will never come, and the blocked response read
// must return. A failing socket needs no help — the reader sees it
// too, or sees the early response that explains it.
func (c *hop) sendBody(body io.Reader, length int64) error {
	chunked := length < 0
	bw := c.bw
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	var sent int64
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
				bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(n), 16))
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

// finish ends an exchange whose response the caller is done with and
// reports whether the connection can carry another request: only if
// the response was read to EOF without Connection: close, the body
// writer succeeded and ctx never fired. Otherwise it is closed.
func (c *hop) finish() bool {
	ok := c.body.eof && !c.closing
	if ok && c.streaming {
		// A complete response normally means the watchdog consumed the
		// whole request and the writer's last write is just returning.
		// One still going after the grace is feeding a watchdog that
		// answered without reading and will not read again.
		grace := time.NewTimer(hopWriterGrace)
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
		c.abort()
		return false
	}
	if _, fired := c.end(); fired {
		c.conn.Close()
		return false
	}
	return true
}

// abort kills the exchange and the connection. Closing first unblocks
// a body writer stuck on the socket; the writer's error is returned.
func (c *hop) abort() error {
	c.conn.Close()
	werr, _ := c.end()
	return werr
}

// end waits for the body writer and unhooks ctx, so nothing touches
// the connection once the instance moves on. It reports the writer's
// error and whether ctx fired.
func (c *hop) end() (werr error, fired bool) {
	if c.streaming {
		werr = <-c.wdone
		c.streaming = false
	}
	return werr, !c.detach()
}

// fail aborts the exchange and picks the error that explains it.
func (c *hop) fail(ctx context.Context, err error) error {
	werr := c.abort()
	switch {
	case isMaxBytesErr(werr):
		return werr
	case ctx.Err() != nil:
		return ctx.Err()
	case werr != nil:
		return werr
	}
	return err
}

// close releases the connection of an instance being torn down.
func (c *hop) close() { c.conn.Close() }
