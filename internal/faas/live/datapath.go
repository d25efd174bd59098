package live

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
)

// This file is the byte-moving half of the live data path: pooled
// buffers and streaming copies shared by the gateway proxy and the
// watchdog handler. The paper's six-timestamp breakdown (§III.A)
// leaves data transfer (4→5) as the residual request cost once reuse
// removes the boot stages, so at steady state a request through this
// path allocates no body-sized memory at all — every chunk moves
// through a recycled buffer.

// copyBufSize is the pooled copy-chunk size: 32 KiB amortizes the
// loopback syscalls without blowing the cache, matching net/http's own
// internal copy granularity.
const copyBufSize = 32 << 10

// maxPooledBody caps how large a compat-shim body buffer may grow and
// still return to the pool: buffers up to the bench suite's largest
// payload recycle (steady-state zero alloc); a pathological request
// beyond that must not pin its buffer in the pool forever.
const maxPooledBody = 8 << 20

// drainLimit bounds how many trailing response bytes the gateway reads
// to keep an instance's watchdog connection; past that, closing and
// re-dialing is cheaper than draining.
const drainLimit = 256 << 10

// copyBufPool recycles the fixed-size copy chunks. It stores *[]byte
// so Put never re-boxes the slice header onto the heap.
var copyBufPool = sync.Pool{New: func() any { b := make([]byte, copyBufSize); return &b }}

// bodyBufPool recycles the compat shim's whole-body buffers.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// copyPooled streams src into dst through a pooled chunk buffer. It is
// io.CopyBuffer minus the WriterTo/ReaderFrom delegation and the
// interface re-boxing needed to defeat it: the copy always goes
// through the pooled buffer, so steady-state throughput costs zero
// heap allocations regardless of the endpoints' concrete types.
func copyPooled(dst io.Writer, src io.Reader) (written int64, err error) {
	bp := copyBufPool.Get().(*[]byte)
	buf := *bp
	for {
		nr, rerr := src.Read(buf)
		if nr > 0 {
			nw, werr := dst.Write(buf[:nr])
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
				err = rerr
			}
			break
		}
	}
	copyBufPool.Put(bp)
	return written, err
}

// getBodyBuf hands out a reset whole-body buffer for the compat shim.
func getBodyBuf() *bytes.Buffer {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// putBodyBuf recycles a shim buffer unless a huge request grew it past
// the pooling cap.
func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufPool.Put(buf)
	}
}

// readTracker distinguishes read-side (backend) failures from
// write-side (client) failures during the response copy: a watchdog
// that dies mid-stream must feed the breaker and doom its instance; a
// client that hangs up must not.
type readTracker struct {
	r      io.Reader
	failed bool
}

func (t *readTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF {
		t.failed = true
	}
	return n, err
}

// trackWriter counts bytes written so the watchdog knows whether a
// failed StreamHandler already committed the response.
type trackWriter struct {
	w io.Writer
	n int64
}

func (t *trackWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.n += int64(n)
	return n, err
}

// drainClose consumes up to drainLimit of the remaining body so the
// connection underneath is left at a message boundary, reusable instead
// of poisoned by unread bytes, then closes the body. On the success
// path the body already sits at EOF and this is one cheap read.
func drainClose(rc io.ReadCloser) {
	bp := copyBufPool.Get().(*[]byte)
	buf := *bp
	var total int64
	for total < drainLimit {
		n, err := rc.Read(buf)
		total += int64(n)
		if err != nil {
			break
		}
	}
	copyBufPool.Put(bp)
	rc.Close()
}

// isMaxBytesErr reports whether err (possibly wrapped, or flattened to
// text by a handler) originates from an http.MaxBytesReader limit — the
// signal to answer 413 instead of blaming the backend.
func isMaxBytesErr(err error) bool {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return true
	}
	return err != nil && strings.Contains(err.Error(), "request body too large")
}
